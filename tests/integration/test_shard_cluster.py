"""End-to-end: the sharded service over real localhost sockets.

Three shards, each served by its own self-hosted
:class:`~repro.net.asyncio_transport.AsyncioTransport` (replicas live in
the transport's event-loop thread, reached through actual TCP
connections), driven by the open-loop generator while the fault
gauntlet runs — a partition that heals, then a replica crash and
restart mid-traffic.  Every key's history must still satisfy its
substrate's consistency condition.
"""

import json
import time

import pytest

from repro.apps.shard import (
    Scenario,
    ShardedKVService,
    ShardServiceConfig,
    run_loadgen,
)
from repro.net.asyncio_transport import AsyncioTransport


def socket_service(shards=3, substrate="max-register", n=3, f=1, seed=0):
    config = ShardServiceConfig.make(
        shards=shards, substrate=substrate, n=n, f=f, capacity=16, seed=seed
    )
    transports = [
        AsyncioTransport(idle_timeout=0.02) for _ in range(shards)
    ]
    return ShardedKVService(config, transports=transports)


class TestSocketCluster:
    def test_sync_sessions_over_sockets(self):
        service = socket_service(seed=1)
        try:
            with service.session(writer=0) as s:
                for i in range(9):
                    s.put(f"key-{i}", f"v{i}")
                assert s.scan() == {f"key-{i}": f"v{i}" for i in range(9)}
            assert all(service.audit().values())
            # The three shard transports really served over sockets.
            for fleet in service.fleets:
                assert fleet.transport.remote
                served = sum(
                    server.requests_served
                    for server in fleet.transport.servers.values()
                )
                assert served > 0
        finally:
            service.close()

    def test_loadgen_survives_crash_restart_mid_traffic(self):
        service = socket_service(seed=2)

        def crash():
            for fleet in service.fleets:
                fleet.transport.crash_replica(2)
            return "crashed replica 2 (state retained)"

        def restart():
            for fleet in service.fleets:
                fleet.transport.restart_replica(2)
            return "restarted replica 2"

        def partition():
            service.partition([0])
            return "blackholed replica 0"

        def heal():
            service.heal()
            return "healed"

        try:
            report = run_loadgen(
                service,
                clock=time.perf_counter,
                sleep=time.sleep,
                rate=150.0,
                duration=2.0,
                sessions=60,
                keys=24,
                seed=13,
                scenarios=[
                    Scenario(0.4, "partition", partition),
                    Scenario(0.8, "heal", heal),
                    Scenario(1.2, "crash", crash),
                    Scenario(1.6, "restart", restart),
                ],
                drain_timeout=20.0,
            )
        finally:
            service.close()
        assert [s["name"] for s in report["scenarios"]] == [
            "partition", "heal", "crash", "restart",
        ]
        assert report["incomplete_ops"] == 0, report
        assert report["sustained_fraction"] == 1.0
        assert report["audit"]["all_ok"], report["audit"]
        # The partition really dropped traffic on the floor.
        dropped = sum(
            fleet.transport.dropped_frames for fleet in service.fleets
        )
        assert dropped > 0


class TestLoadgenCLI:
    def test_sim_transport_loadgen_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main(
            [
                "loadgen",
                "--transport", "sim",
                "--shards", "3",
                "--rate", "300",
                "--duration", "0.4",
                "--sessions", "40",
                "--keys", "12",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["benchmark"] == "kv_loadgen"
        assert report["audit"]["all_ok"]
        assert report["completed_ops"] == report["offered_ops"]
        assert report["transport"] == "sim"

    def test_spawn_gauntlet_rejects_amnesia_unsafe_fleet(self, capsys):
        from repro.cli import main

        # n = 2f+1 cannot absorb a wiped-and-restarted replica on top of
        # the f crash allowance; the CLI must refuse up front.
        code = main(
            [
                "loadgen",
                "--transport", "spawn",
                "--scenario", "gauntlet",
                "-n", "3",
                "-f", "1",
                "--duration", "0.2",
            ]
        )
        assert code == 2
        assert "2f+2" in capsys.readouterr().err

    def test_sim_gauntlet_is_refused_up_front(self, capsys):
        from repro.cli import main

        # In-process shards can neither blackhole nor crash a replica:
        # refuse before building the service, as the 2f+2 guard does.
        code = main(
            [
                "loadgen",
                "--transport", "sim",
                "--scenario", "gauntlet",
                "--duration", "0.2",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "asyncio" in captured.err and "spawn" in captured.err
        assert "blackholed" not in captured.out + captured.err

    def test_spawn_gauntlet_one_shard(self, tmp_path, capsys):
        from repro.cli import main

        # One `repro serve` process per replica, real sockets, SIGKILL
        # and restart on the old ports, all mid-traffic.
        out = tmp_path / "spawn.json"
        code = main(
            [
                "loadgen",
                "--transport", "spawn",
                "--scenario", "gauntlet",
                "--shards", "1",
                "-n", "4",
                "-f", "1",
                "--rate", "100",
                "--duration", "2",
                "--sessions", "40",
                "--keys", "16",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0, capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["transport"] == "spawn"
        assert [s["name"] for s in report["scenarios"]] == [
            "partition", "heal", "crash", "restart",
        ]
        assert report["audit"]["all_ok"], report["audit"]
        assert report["sustained_fraction"] >= 0.99
        latency = report["latency_ms"]
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]

    @pytest.mark.parametrize(
        "failing, exit_code, spawned",
        [("third serve process", 4, 2), ("service", 8, 4)],
    )
    def test_spawn_failure_terminates_started_serve_processes(
        self, monkeypatch, capsys, failing, exit_code, spawned
    ):
        import repro.apps.shard
        import repro.cli
        from repro.errors import InvalidConfig, QuorumUnavailable

        class FakeProc:
            terminated = False

            def poll(self):
                return 0 if self.terminated else None

            def terminate(self):
                self.terminated = True

            def wait(self):
                return 0

        started = []

        def spawn(args, server_index, ports=None):
            if failing == "third serve process" and server_index == 2:
                raise QuorumUnavailable("serve process exited early")
            started.append(FakeProc())
            return started[-1], {0: ("127.0.0.1", 40000 + server_index)}

        def service(config, transports=None):
            raise InvalidConfig("service constructor failed")

        monkeypatch.setattr(repro.cli, "_spawn_shard_node", spawn)
        if failing == "service":
            monkeypatch.setattr(repro.apps.shard, "ShardedKVService", service)
        code = repro.cli.main(
            [
                "loadgen",
                "--transport", "spawn",
                "--shards", "1",
                "-n", "4",
                "-f", "1",
                "--duration", "0.2",
            ]
        )
        assert code == exit_code
        assert len(started) == spawned
        assert all(proc.terminated for proc in started)
