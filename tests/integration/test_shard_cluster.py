"""End-to-end: the sharded service over real localhost sockets.

A :class:`~repro.apps.shard.ShardCluster` of three shards, each served by
its own self-hosted :class:`~repro.net.asyncio_transport.AsyncioTransport`
(replicas reached through actual TCP connections), driven by the
open-loop generator while the cluster's fault gauntlet runs — a
partition that heals, then a replica crash and restart mid-traffic.
Every key's history must still satisfy its substrate's consistency
condition.  ``repro loadgen`` drives the same cluster in-process,
self-hosted and spawned, and the serve command line the spawner writes
must rebuild the load generator's shards.
"""

import json
import time

import pytest

from repro.apps.shard import (
    ShardCluster,
    ShardConfig,
    ShardServiceConfig,
    run_loadgen,
)
from repro.apps.shard.cluster import serve_argv
from repro.apps.shard.config import SHARD_SUBSTRATES
from repro.core.multi import slot_placements
from repro.errors import InvalidConfig


def socket_cluster(shards=3, substrate="max-register", n=3, f=1, seed=0):
    config = ShardServiceConfig.make(
        shards=shards, substrate=substrate, n=n, f=f, capacity=16, seed=seed
    )
    return ShardCluster(config, "asyncio", idle_timeout=0.02)


class TestSocketCluster:
    def test_sync_sessions_over_sockets(self):
        with socket_cluster(seed=1) as cluster:
            service = cluster.service
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

    def test_loadgen_survives_crash_restart_mid_traffic(self):
        # The library's gauntlet: partition, heal, then a self-hosted
        # replica crash (state retained) and restart, all mid-traffic.
        with socket_cluster(seed=2) as cluster:
            report = run_loadgen(
                cluster.service,
                clock=time.perf_counter,
                sleep=time.sleep,
                rate=150.0,
                duration=2.0,
                sessions=60,
                keys=24,
                seed=13,
                scenarios=cluster.gauntlet(2.0),
                drain_timeout=20.0,
            )
        assert [s["name"] for s in report["scenarios"]] == [
            "partition", "heal", "crash", "restart",
        ]
        assert report["incomplete_ops"] == 0, report
        assert report["sustained_fraction"] == 1.0
        assert report["audit"]["all_ok"], report["audit"]
        # The partition held traffic and sent it at heal: every op above
        # completed, and nothing is left held.
        transports = [fleet.transport for fleet in cluster.service.fleets]
        assert sum(transport.held_frames for transport in transports) > 0
        assert not any(transport._held for transport in transports)


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

    def test_spawn_gauntlet_one_shard(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        # One `repro serve` process per replica, real sockets, SIGKILL
        # and restart on the old ports, all mid-traffic.  The serve
        # processes' stdout is a block-buffered pipe: each must flush its
        # announcement itself.
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
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

    def test_asyncio_gauntlet_one_shard(self, tmp_path, capsys):
        from repro.cli import main

        # Self-hosted replicas: the crash closes a replica's listener and
        # keeps its state, the restart re-serves it on the same port.
        out = tmp_path / "asyncio.json"
        code = main(
            [
                "loadgen",
                "--transport", "asyncio",
                "--scenario", "gauntlet",
                "--shards", "1",
                "-n", "3",
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
        assert [(s["name"], s["detail"]) for s in report["scenarios"]] == [
            ("partition", "blackholed server 1 on every shard"),
            ("heal", "partition healed"),
            ("crash", "crashed self-hosted replica 2"),
            ("restart", "restarted replica 2"),
        ]
        assert report["audit"]["all_ok"], report["audit"]
        assert report["incomplete_ops"] == 0, report

    @pytest.mark.parametrize(
        "failing, exit_code, spawned",
        [("third serve process", 4, 2), ("service", 8, 4)],
    )
    def test_spawn_failure_terminates_started_serve_processes(
        self, monkeypatch, capsys, failing, exit_code, spawned
    ):
        import repro.apps.shard.cluster
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

        def spawn(config, server_index, ports=None):
            if failing == "third serve process" and server_index == 2:
                raise QuorumUnavailable("serve process exited early")
            started.append(FakeProc())
            return started[-1], {0: 40000 + server_index}

        def service(config, transports=None):
            raise InvalidConfig("service constructor failed")

        cluster = repro.apps.shard.cluster
        monkeypatch.setattr(cluster, "spawn_shard_node", spawn)
        if failing == "service":
            monkeypatch.setattr(cluster, "ShardedKVService", service)
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

    @pytest.mark.parametrize(
        "script, error",
        [
            ("exec sleep 60", "TransportUnavailable"),
            ("echo not an announcement; exit 3", "QuorumUnavailable"),
        ],
        ids=["never-announces", "exits-early"],
    )
    def test_spawn_without_announcement_kills_the_child(
        self, tmp_path, monkeypatch, script, error
    ):
        import subprocess
        import sys

        import repro.apps.shard.cluster as cluster
        import repro.errors

        # A stand-in interpreter that never announces a listener.
        stub = tmp_path / "python"
        stub.write_text(f"#!/bin/sh\n{script}\n")
        stub.chmod(0o755)
        monkeypatch.setattr(sys, "executable", str(stub))
        monkeypatch.setattr(cluster, "SPAWN_ANNOUNCE_DEADLINE_S", 0.5)
        spawned = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            spawned.append(popen(*args, **kwargs))
            return spawned[-1]

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        config = ShardServiceConfig.make(
            shards=1, substrate="max-register", n=3, f=1, k_writers=4,
            capacity=16,
        )
        started = time.monotonic()
        with pytest.raises(getattr(repro.errors, error)):
            cluster.spawn_shard_node(config, 0)
        assert time.monotonic() - started < 10
        (proc,) = spawned
        assert proc.poll() is not None


class TestServeArgv:
    """What the spawner writes, ``repro serve`` reads: the serve process
    rebuilds the load generator's shards and placements."""

    @pytest.mark.parametrize("substrate", SHARD_SUBSTRATES)
    def test_serve_argv_rebuilds_the_loadgen_config(self, substrate):
        from repro.cli import _shard_service_config, build_parser, cmd_serve

        parser = build_parser()
        loadgen = parser.parse_args(
            [
                "loadgen",
                "--shards", "2",
                "--substrate", substrate,
                "-n", "5",
                "-f", "2",
                "-k", "3",
                "--capacity", "6",
                "--seed", "9",
            ]
        )
        config = _shard_service_config(loadgen)
        serve = parser.parse_args(
            serve_argv(config, 4, ports={0: 41001, 1: 41002})
        )
        assert serve.fn is cmd_serve
        assert (serve.server, serve.ports) == (4, "41001,41002")
        rebuilt = _shard_service_config(serve)
        assert rebuilt.shards == config.shards
        assert rebuilt.shards[0] == ShardConfig(substrate, 5, 2, 3, 6)
        def placements(shard):
            return slot_placements(
                shard.substrate, shard.capacity, shard.k_writers, shard.n, shard.f
            )[0]

        assert [placements(s) for s in rebuilt.shards] == [
            placements(s) for s in config.shards
        ]

    def test_heterogeneous_shards_have_no_serve_argv(self):
        config = ShardServiceConfig(
            shards=(ShardConfig(n=3, f=1), ShardConfig(n=5, f=2))
        )
        with pytest.raises(InvalidConfig):
            serve_argv(config, 0)
