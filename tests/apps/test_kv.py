"""Tests for the replicated KV store."""

import pytest

from repro.apps.kv import KVConfig, ReplicatedKVStore
from repro.apps.shard import ShardConfig, ShardedKVService, ShardServiceConfig


class TestConfig:
    def test_defaults_valid(self):
        KVConfig().validate()

    def test_bad_substrate(self):
        with pytest.raises(ValueError):
            KVConfig(substrate="blockchain").validate()

    def test_too_few_servers(self):
        with pytest.raises(ValueError):
            KVConfig(n=4, f=2).validate()

    def test_bad_writer_count(self):
        with pytest.raises(ValueError):
            KVConfig(k_writers=0).validate()

    def test_config_xor_overrides(self):
        with pytest.raises(ValueError):
            ReplicatedKVStore(KVConfig(), substrate="cas")


@pytest.mark.parametrize("substrate", ["register", "max-register", "cas"])
class TestBasicOperations:
    def test_put_get(self, substrate):
        store = ReplicatedKVStore(substrate=substrate, n=5, f=2, k_writers=2)
        store.session().put("alpha", 1)
        store.session(writer=1).put("beta", "two")
        assert store.get("alpha") == 1
        assert store.get("beta") == "two"

    def test_overwrite(self, substrate):
        store = ReplicatedKVStore(substrate=substrate, n=5, f=2, k_writers=2)
        store.session().put("key", "old")
        store.session(writer=1).put("key", "new")
        assert store.get("key") == "new"

    def test_missing_key_default(self, substrate):
        store = ReplicatedKVStore(substrate=substrate, n=5, f=2)
        assert store.get("ghost") is None
        assert store.get("ghost", default="dflt") == "dflt"

    def test_keys_listing(self, substrate):
        store = ReplicatedKVStore(substrate=substrate, n=5, f=2)
        store.session().put("b", 2)
        store.session().put("a", 1)
        assert store.keys() == ["a", "b"]

    def test_audit_clean(self, substrate):
        store = ReplicatedKVStore(substrate=substrate, n=5, f=2, k_writers=2)
        for i in range(3):
            store.session(writer=i % 2).put("key", f"v{i}")
            store.get("key")
        assert all(store.audit().values())


class TestSpaceAccounting:
    def test_table1_economics(self):
        """Per-key base-object budget follows Table 1."""
        n, f, k = 5, 2, 3
        budgets = {}
        for substrate in ("register", "max-register", "cas"):
            store = ReplicatedKVStore(
                substrate=substrate, n=n, f=f, k_writers=k
            )
            store.session().put("x", 1)
            budgets[substrate] = store.base_objects_per_key()["x"]
        assert budgets["max-register"] == 2 * f + 1
        assert budgets["cas"] == 2 * f + 1
        assert budgets["register"] == k * (2 * f + 1)  # n = 2f+1 regime

    def test_total_base_objects(self):
        store = ReplicatedKVStore(substrate="max-register", n=5, f=2)
        store.session().put("a", 1)
        store.session().put("b", 2)
        assert store.base_objects == 10

    def test_snapshot(self):
        store = ReplicatedKVStore(substrate="max-register", n=5, f=2)
        store.session().put("a", 1)
        store.session().put("b", 2)
        store.session().put("a", 3)
        assert store.snapshot() == {"a": 3, "b": 2}

    def test_snapshot_empty_store(self):
        store = ReplicatedKVStore(substrate="cas", n=5, f=2)
        assert store.snapshot() == {}


@pytest.mark.parametrize("substrate", ["register", "max-register", "cas"])
class TestDelete:
    def test_delete_then_get_default(self, substrate):
        store = ReplicatedKVStore(substrate=substrate, n=5, f=2, k_writers=2)
        store.session().put("key", "value")
        store.session(writer=1).delete("key")
        assert store.get("key") is None
        assert store.get("key", default="gone") == "gone"

    def test_delete_unknown_key_noop(self, substrate):
        store = ReplicatedKVStore(substrate=substrate, n=5, f=2)
        store.session().delete("ghost")
        assert store.keys() == []

    def test_rewrite_after_delete(self, substrate):
        store = ReplicatedKVStore(substrate=substrate, n=5, f=2, k_writers=2)
        store.session().put("key", "v1")
        store.session().delete("key")
        store.session(writer=1).put("key", "v2")
        assert store.get("key") == "v2"

    def test_snapshot_omits_deleted(self, substrate):
        store = ReplicatedKVStore(substrate=substrate, n=5, f=2, k_writers=2)
        store.session().put("keep", 1)
        store.session(writer=1).put("drop", 2)
        store.session().delete("drop")
        assert store.snapshot() == {"keep": 1}
        assert all(store.audit().values())


class TestFaultTolerance:
    @pytest.mark.parametrize("substrate", ["register", "max-register", "cas"])
    def test_survives_f_crashes(self, substrate):
        store = ReplicatedKVStore(substrate=substrate, n=5, f=2, k_writers=2)
        store.session().put("key", "before")
        store.crash_server(0)
        store.crash_server(3)
        assert store.get("key") == "before"
        store.session(writer=1).put("key", "after")
        assert store.get("key") == "after"
        assert all(store.audit().values())

    def test_writer_index_validated(self):
        store = ReplicatedKVStore(substrate="register", n=5, f=2, k_writers=2)
        with pytest.raises(ValueError):
            store.session(writer=5).put("key", 1)

    def test_crash_index_validated(self):
        store = ReplicatedKVStore(substrate="register", n=5, f=2)
        with pytest.raises(ValueError):
            store.crash_server(9)


@pytest.mark.parametrize("substrate", ["register", "max-register", "cas"])
def test_store_is_the_one_shard_service(substrate):
    """The same seed and script through ``ReplicatedKVStore`` and through
    a hand-built one-shard ``ShardedKVService`` give equal per-key
    histories: the store adds no protocol, schedule or client of its own
    (this fails the day the store is forked from the service again)."""
    store = ReplicatedKVStore(
        substrate=substrate, n=5, f=2, k_writers=2, seed=11, max_keys=3
    )
    service = ShardedKVService(
        ShardServiceConfig(
            shards=(
                ShardConfig(
                    substrate=substrate, n=5, f=2, k_writers=2, capacity=3
                ),
            ),
            seed=11,
        )
    )
    # the store's writer-free reads are one read-only session, opened first
    fronts = ((store, store), (service, service.session(writer=None)))
    for front, reads in fronts:
        first, second = front.session(writer=0), front.session(writer=1)
        first.put("a", 1)
        second.put("b", [2])
        assert reads.get("a") == 1
        front.crash_server(4)
        second.put("a", 3)
        first.delete("b")
        assert second.get("b") is None
        assert reads.get("a") == 3
        assert first.scan() == {"a": 3}
    assert store.keys() == service.keys() == ["a", "b"]
    used = slice(0, 2)
    assert [
        slot.history.to_dicts() for slot in store.fleet.slots[used]
    ] == [slot.history.to_dicts() for slot in service.fleets[0].slots[used]]
    assert store.fleet.kernel.time == service.fleets[0].kernel.time
    assert store.audit() == service.audit() == {"a": True, "b": True}
