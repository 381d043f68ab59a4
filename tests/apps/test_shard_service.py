"""The sharded KV service: router, configs, sessions, async path.

Everything here runs on in-process (sim-transport) shards so the tests
are deterministic; the socket deployments are covered by
``tests/integration/test_shard_cluster.py``.
"""

import pickle

import pytest

from repro.apps.shard import (
    Scenario,
    ShardConfig,
    ShardedKVService,
    ShardRouter,
    ShardServiceConfig,
    run_loadgen,
    stable_key_hash,
)
from repro.errors import (
    InvalidConfig,
    ShardCapacityExceeded,
    TransportUnavailable,
    WriterBoundExceeded,
)
from repro.net import InProcTransport, TransportConfig, chaos_faults


def service_config(**overrides):
    params = dict(
        shards=3, substrate="max-register", n=3, f=1, capacity=8, seed=7
    )
    params.update(overrides)
    return ShardServiceConfig.make(**params)


class TestRouter:
    def test_stable_hash_is_process_independent(self):
        # CRC-32, not the salted builtin ``hash``: the mapping must agree
        # across the coordinator and spawned replica processes.
        assert stable_key_hash("alpha") == 3504355690  # zlib.crc32
        assert stable_key_hash("") == 0

    def test_shard_of_is_deterministic_and_in_range(self):
        router = ShardRouter(5)
        for key in ("a", "b", "key-17", "user:42"):
            shard = router.shard_of(key)
            assert 0 <= shard < 5
            assert router.shard_of(key) == shard

    def test_partition_keys_routes_every_key_once(self):
        router = ShardRouter(3)
        keys = [f"key-{i}" for i in range(50)]
        parts = router.partition_keys(keys)
        assert len(parts) == 3
        assert sorted(k for ks in parts for k in ks) == sorted(keys)
        for shard, ks in enumerate(parts):
            assert all(router.shard_of(k) == shard for k in ks)

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestShardConfigs:
    def test_shard_config_validation(self):
        with pytest.raises(ValueError):
            ShardConfig(substrate="bogus")
        with pytest.raises(ValueError):
            ShardConfig(n=2, f=1)
        with pytest.raises(ValueError):
            ShardConfig(capacity=0)
        with pytest.raises(ValueError):
            ShardConfig(k_writers=0)

    def test_service_config_make_builds_uniform_shards(self):
        config = service_config(shards=4, substrate="cas", n=5, f=2)
        assert config.n_shards == 4
        assert all(s.substrate == "cas" for s in config.shards)
        assert all((s.n, s.f) == (5, 2) for s in config.shards)

    def test_configs_picklable_and_cacheable(self):
        import json

        config = service_config()
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        payload = config.cache_payload()
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload


class TestSyncSessions:
    @pytest.mark.parametrize("substrate", ["max-register", "cas", "register"])
    def test_put_get_delete_scan_audit(self, substrate):
        service = ShardedKVService(service_config(substrate=substrate))
        with service.session(writer=0) as s:
            for i in range(6):
                s.put(f"key-{i}", f"v{i}")
            for i in range(6):
                assert s.get(f"key-{i}") == f"v{i}"
            s.delete("key-0")
            assert s.get("key-0") is None
            view = s.scan("key-")
            assert view == {f"key-{i}": f"v{i}" for i in range(1, 6)}
        audits = service.audit()
        assert len(audits) == 6
        assert all(audits.values()), audits

    def test_keys_spread_over_shards(self):
        service = ShardedKVService(service_config(capacity=24))
        with service.session(writer=0) as s:
            for i in range(24):
                s.put(f"key-{i}", i)
        used = {service.shard_of(k) for k in service.keys()}
        assert len(used) > 1  # 24 CRC-hashed keys don't all land together

    def test_crash_within_f_keeps_serving(self):
        service = ShardedKVService(service_config())
        with service.session(writer=0) as s:
            s.put("alpha", 1)
            service.crash_server(0)  # f=1: every shard loses one replica
            s.put("alpha", 2)
            assert s.get("alpha") == 2
        assert all(service.audit().values())

    def test_closed_session_refuses(self):
        service = ShardedKVService(service_config())
        s = service.session()
        s.close()
        with pytest.raises(RuntimeError):
            s.get("alpha")


class TestTypedFailures:
    def test_writer_bound_per_register_shard(self):
        service = ShardedKVService(
            service_config(substrate="register", k_writers=2)
        )
        with service.session(writer=1) as ok:
            ok.put("alpha", 1)
        with service.session(writer=2) as over:
            with pytest.raises(WriterBoundExceeded):
                over.put("alpha", 2)

    def test_negative_writer_rejected_at_open(self):
        service = ShardedKVService(service_config())
        with pytest.raises(WriterBoundExceeded):
            service.session(writer=-1)

    def test_read_only_session_refuses_every_write_form(self):
        service = ShardedKVService(service_config())
        with service.session(writer=0) as writer:
            writer.put("alpha", 1)
        with service.session(writer=None) as reader:
            assert reader.get("alpha") == 1
            assert reader.scan() == {"alpha": 1}
            reader.submit_get("alpha", token="g")
            for write in (
                lambda: reader.put("alpha", 2),
                lambda: reader.delete("alpha"),
                lambda: reader.submit_put("alpha", 2, token="p"),
                lambda: reader.submit_delete("alpha", token="d"),
                lambda: reader.put("never-written", 2),
            ):
                with pytest.raises(WriterBoundExceeded):
                    write()
        service.step()
        assert [done[0] for done in service.drain_completions()] == ["g"]
        # a refused write claims no slot
        assert service.keys() == ["alpha"]

    def test_unbounded_substrates_fold_writers_onto_pool(self):
        service = ShardedKVService(service_config(substrate="max-register"))
        with service.session(writer=10_000) as s:  # any identity works
            s.put("alpha", 1)
            assert s.get("alpha") == 1

    def test_shard_capacity_exceeded(self):
        service = ShardedKVService(service_config(shards=1, capacity=2))
        with service.session(writer=0) as s:
            s.put("a", 1)
            s.put("b", 2)
            with pytest.raises(ShardCapacityExceeded):
                s.put("c", 3)

    def test_submit_refuses_an_unknown_kind(self):
        """A typo such as ``"pt"`` neither overwrites an existing key nor
        acknowledges a new one: it is refused before a slot is claimed."""
        service = ShardedKVService(service_config(shards=1))
        s = service.session(writer=0)
        s.put("alpha", 1)
        for kind in ("pt", "GET", "read"):
            for key in ("alpha", "fresh"):
                with pytest.raises(InvalidConfig, match=r"put\|get\|delete"):
                    service.submit(s, kind, key, "typo", token=kind)
        service.step()
        assert service.drain_completions() == []
        assert service.keys() == ["alpha"]
        assert s.get("alpha") == 1

    def test_transport_count_must_match_shards(self):
        with pytest.raises(ValueError):
            ShardedKVService(service_config(shards=3), transports=[None])


class _Blackholing(InProcTransport):
    """In-process delivery that records the partitions asked of it."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def set_blackhole(self, server_indices):
        self.calls.append(frozenset(server_indices))


class TestPartitionControl:
    """``partition`` / ``heal`` act on every shard or on none."""

    @pytest.mark.parametrize("transport", ["inproc", "lossy"])
    def test_transports_that_cannot_blackhole_are_refused(self, transport):
        if transport == "inproc":
            transports = None
        else:
            transports = [
                TransportConfig.lossy(chaos_faults(), seed=i).build()
                for i in range(3)
            ]
        service = ShardedKVService(service_config(), transports=transports)
        for control in (lambda: service.partition({1}), service.heal):
            with pytest.raises(TransportUnavailable, match="shard 0"):
                control()
        # the service still serves: nothing was half-partitioned
        with service.session(writer=0) as s:
            s.put("alpha", 1)
            assert s.get("alpha") == 1

    def test_one_incapable_shard_blocks_every_shard(self):
        capable = [_Blackholing(), None, _Blackholing()]
        service = ShardedKVService(service_config(), transports=capable)
        with pytest.raises(TransportUnavailable, match="shard 1"):
            service.partition({2})
        assert capable[0].calls == capable[2].calls == []

    def test_capable_shards_blackhole_and_heal(self):
        capable = [_Blackholing() for _ in range(3)]
        service = ShardedKVService(service_config(), transports=capable)
        service.partition({1, 2})
        service.heal()
        for transport in capable:
            assert transport.calls == [frozenset({1, 2}), frozenset()]


class TestAsyncPath:
    def test_submit_step_drain(self):
        service = ShardedKVService(service_config())
        s = service.session(writer=0)
        s.submit_put("alpha", "v1", token="w1")
        service.step()
        s.submit_get("alpha", token="r1")
        s.submit_get("missing", token="r2")  # completes without a round
        service.step()
        done = {tok: result for tok, _, result, _ in service.drain_completions()}
        assert done == {"w1": "ack", "r1": "v1", "r2": None}

    def test_sync_ops_do_not_swallow_async_tokens(self):
        service = ShardedKVService(service_config())
        s = service.session(writer=0)
        s.put("sync-key", 1)  # ensures slots/clients exist
        s.submit_put("async-key", "v", token="t1")
        # A sync op drives the shard to quiescence — the async token must
        # survive into drain_completions rather than vanish.
        assert s.get("sync-key") == 1
        service.step()
        tokens = [tok for tok, _, _, _ in service.drain_completions()]
        assert "t1" in tokens

    def test_interleaved_sync_and_async_completions_stay_apart(self):
        service = ShardedKVService(service_config(shards=1))
        s = service.session(writer=0)
        s.put("hot", "v0")
        s.submit_put("hot", "v1", token=("sync", 0))  # looks like a sync token
        s.submit_get("hot", token="r1")
        s.submit_get("hot", token="r2")
        # Each sync call drives the one shard to quiescence, completing
        # the queued async operations on the way.
        s.put("other", 7)
        assert s.get("other") == 7
        s.submit_get("other", token="r3")
        service.step()
        done = {tok: result for tok, _, result, _ in service.drain_completions()}
        # One reader client serves r1 and r2 in order; r3 came later.
        assert [tok for tok in done if tok != ("sync", 0)] == ["r1", "r2", "r3"]
        assert done[("sync", 0)] == "ack" and done["r3"] == 7
        assert {done["r1"], done["r2"]} <= {"v0", "v1"}  # concurrent with v1
        assert service._results == {}  # every sync result was handed back

    def test_completion_clock_stamps(self):
        service = ShardedKVService(service_config())
        ticks = iter(range(100))
        service.set_completion_clock(lambda: next(ticks))
        s = service.session(writer=0)
        s.submit_put("alpha", 1, token="w")
        service.step()
        [(tok, name, result, stamp)] = service.drain_completions()
        assert tok == "w" and stamp is not None
        service.set_completion_clock(None)


class FakeTime:
    """Deterministic clock: every read advances a little, sleeps advance
    in full — enough structure for the open-loop admission arithmetic."""

    def __init__(self, tick=0.0005):
        self.now = 0.0
        self.tick = tick

    def clock(self):
        self.now += self.tick
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestLoadgenSim:
    def test_loadgen_completes_and_audits(self):
        service = ShardedKVService(service_config())
        fake = FakeTime()
        report = run_loadgen(
            service,
            clock=fake.clock,
            sleep=fake.sleep,
            rate=400.0,
            duration=1.0,
            sessions=50,
            keys=16,
            seed=3,
        )
        assert report["offered_ops"] > 100
        assert report["completed_ops"] == report["offered_ops"]
        assert report["incomplete_ops"] == 0
        assert report["sustained_fraction"] == 1.0
        assert report["audit"]["all_ok"]
        assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]

    def test_loadgen_same_seed_same_offered_stream(self):
        reports = []
        for _ in range(2):
            service = ShardedKVService(service_config())
            fake = FakeTime()
            reports.append(
                run_loadgen(
                    service,
                    clock=fake.clock,
                    sleep=fake.sleep,
                    rate=300.0,
                    duration=0.5,
                    sessions=20,
                    keys=8,
                    seed=11,
                )
            )
        a, b = reports
        assert a["offered_ops"] == b["offered_ops"]
        assert a["completed_ops"] == b["completed_ops"]
        assert a["latency_ms"] == b["latency_ms"]

    def test_loadgen_scenarios_fire_and_log(self):
        service = ShardedKVService(service_config())
        fake = FakeTime()
        report = run_loadgen(
            service,
            clock=fake.clock,
            sleep=fake.sleep,
            rate=300.0,
            duration=1.0,
            sessions=20,
            keys=8,
            seed=5,
            scenarios=[
                Scenario(0.3, "crash", lambda: service.crash_server(0) or "s0"),
            ],
        )
        assert [s["name"] for s in report["scenarios"]] == ["crash"]
        # f=1 tolerated: the run still completes and audits clean.
        assert report["audit"]["all_ok"]
        assert report["sustained_fraction"] == 1.0

    def test_loadgen_counts_shed_load_but_not_bugs(self, monkeypatch):
        # One shard with room for 2 of the 8 keys: the rest are refused.
        service = ShardedKVService(service_config(shards=1, capacity=2))
        fake = FakeTime()
        params = dict(
            clock=fake.clock, sleep=fake.sleep, rate=300.0, duration=0.5,
            sessions=10, keys=8, read_fraction=0.0, seed=2,
        )
        report = run_loadgen(service, **params)
        assert report["failed_submits"] > 0
        assert (
            report["completed_ops"] + report["failed_submits"]
            == report["offered_ops"]
        )

        def broken_submit(self, session, kind, key, value=None, token=None):
            raise TypeError("submit() got its arguments wrong")

        monkeypatch.setattr(ShardedKVService, "submit", broken_submit)
        with pytest.raises(TypeError, match="arguments wrong"):
            run_loadgen(ShardedKVService(service_config()), **params)

    def test_loadgen_validates_inputs(self):
        service = ShardedKVService(service_config())
        fake = FakeTime()
        with pytest.raises(ValueError):
            run_loadgen(
                service, clock=fake.clock, sleep=fake.sleep, rate=0
            )
        with pytest.raises(ValueError):
            run_loadgen(
                service, clock=fake.clock, sleep=fake.sleep, sessions=0
            )
