"""The replicated KV store: a one-shard ``ShardedKVService``."""

import hashlib
import json

import pytest

from repro.apps.shard import ShardServiceConfig

from tests.conftest import one_shard_service


class TestConfig:
    def test_defaults_valid(self):
        assert ShardServiceConfig.make(shards=1, capacity=16).n_shards == 1

    def test_bad_substrate(self):
        with pytest.raises(ValueError):
            ShardServiceConfig.make(shards=1, substrate="blockchain")

    def test_too_few_servers(self):
        with pytest.raises(ValueError):
            ShardServiceConfig.make(shards=1, n=4, f=2)

    def test_bad_writer_count(self):
        with pytest.raises(ValueError):
            ShardServiceConfig.make(shards=1, k_writers=0)


@pytest.mark.parametrize("substrate", ["register", "max-register", "cas"])
class TestBasicOperations:
    def test_put_get(self, substrate):
        service = one_shard_service(substrate, k_writers=2)
        service.session().put("alpha", 1)
        service.session(writer=1).put("beta", "two")
        reads = service.session(writer=None)
        assert reads.get("alpha") == 1
        assert reads.get("beta") == "two"

    def test_overwrite(self, substrate):
        service = one_shard_service(substrate, k_writers=2)
        service.session().put("key", "old")
        service.session(writer=1).put("key", "new")
        assert service.session(writer=None).get("key") == "new"

    def test_missing_key_default(self, substrate):
        reads = one_shard_service(substrate).session(writer=None)
        assert reads.get("ghost") is None
        assert reads.get("ghost", default="dflt") == "dflt"

    def test_keys_listing(self, substrate):
        service = one_shard_service(substrate)
        service.session().put("b", 2)
        service.session().put("a", 1)
        assert service.keys() == ["a", "b"]

    def test_audit_clean(self, substrate):
        service = one_shard_service(substrate, k_writers=2)
        reads = service.session(writer=None)
        for i in range(3):
            service.session(writer=i % 2).put("key", f"v{i}")
            reads.get("key")
        assert all(service.audit().values())


class TestSpaceAccounting:
    def test_table1_economics(self):
        """Per-key base-object budget follows Table 1."""
        n, f, k = 5, 2, 3
        budgets = {}
        for substrate in ("register", "max-register", "cas"):
            service = one_shard_service(substrate, n=n, f=f, k_writers=k)
            service.session().put("x", 1)
            budgets[substrate] = service.fleets[0].objects_per_slot
        assert budgets["max-register"] == 2 * f + 1
        assert budgets["cas"] == 2 * f + 1
        assert budgets["register"] == k * (2 * f + 1)  # n = 2f+1 regime

    def test_total_base_objects(self):
        service = one_shard_service("max-register")
        service.session().put("a", 1)
        service.session().put("b", 2)
        per_key = service.fleets[0].objects_per_slot
        assert len(service.keys()) * per_key == 10

    def test_snapshot(self):
        service = one_shard_service("max-register")
        service.session().put("a", 1)
        service.session().put("b", 2)
        service.session().put("a", 3)
        assert service.session(writer=None).scan() == {"a": 3, "b": 2}

    def test_snapshot_empty_store(self):
        service = one_shard_service("cas")
        assert service.session(writer=None).scan() == {}


@pytest.mark.parametrize("substrate", ["register", "max-register", "cas"])
class TestDelete:
    def test_delete_then_get_default(self, substrate):
        service = one_shard_service(substrate, k_writers=2)
        service.session().put("key", "value")
        service.session(writer=1).delete("key")
        reads = service.session(writer=None)
        assert reads.get("key") is None
        assert reads.get("key", default="gone") == "gone"

    def test_delete_unknown_key_noop(self, substrate):
        service = one_shard_service(substrate)
        service.session().delete("ghost")
        assert service.keys() == []

    def test_rewrite_after_delete(self, substrate):
        service = one_shard_service(substrate, k_writers=2)
        service.session().put("key", "v1")
        service.session().delete("key")
        service.session(writer=1).put("key", "v2")
        assert service.session(writer=None).get("key") == "v2"

    def test_snapshot_omits_deleted(self, substrate):
        service = one_shard_service(substrate, k_writers=2)
        service.session().put("keep", 1)
        service.session(writer=1).put("drop", 2)
        service.session().delete("drop")
        assert service.session(writer=None).scan() == {"keep": 1}
        assert all(service.audit().values())


class TestFaultTolerance:
    @pytest.mark.parametrize("substrate", ["register", "max-register", "cas"])
    def test_survives_f_crashes(self, substrate):
        service = one_shard_service(substrate, k_writers=2)
        reads = service.session(writer=None)
        service.session().put("key", "before")
        service.crash_server(0)
        service.crash_server(3)
        assert reads.get("key") == "before"
        service.session(writer=1).put("key", "after")
        assert reads.get("key") == "after"
        assert all(service.audit().values())

    def test_writer_index_validated(self):
        service = one_shard_service("register", k_writers=2)
        with pytest.raises(ValueError):
            service.session(writer=5).put("key", 1)

    def test_crash_index_validated(self):
        service = one_shard_service("register")
        with pytest.raises(ValueError):
            service.crash_server(9)


#: (kernel time, sha256 prefix of the two used slots' histories) after
#: the script below at seed 11, the read-only session opened first.
STORE_REPLAY = {
    "register": (212, "7ad47074b0d21280"),
    "max-register": (104, "a35b3953ee5dcc70"),
    "cas": (307, "47880b6ff639d31a"),
}


@pytest.mark.parametrize("substrate", ["register", "max-register", "cas"])
def test_store_is_the_one_shard_service(substrate):
    """``ShardServiceConfig.make(shards=1, ...)`` seeds its one fleet
    ``seed * 7919 + 0`` and places keys first-come, so a one-shard
    service replays the single-fleet store's schedules and histories
    bit for bit (the pins were recorded on the store before it became
    this service; they move the day seeding or placement does)."""
    service = one_shard_service(
        substrate, k_writers=2, capacity=3, seed=11
    )
    reads = service.session(writer=None)
    first, second = service.session(writer=0), service.session(writer=1)
    first.put("a", 1)
    second.put("b", [2])
    assert reads.get("a") == 1
    service.crash_server(4)
    second.put("a", 3)
    first.delete("b")
    assert second.get("b") is None
    assert reads.get("a") == 3
    assert first.scan() == {"a": 3}
    assert service.keys() == ["a", "b"]
    fleet = service.fleets[0]
    histories = [slot.history.to_dicts() for slot in fleet.slots[:2]]
    digest = hashlib.sha256(
        json.dumps(histories, sort_keys=True).encode()
    ).hexdigest()[:16]
    assert (fleet.kernel.time, digest) == STORE_REPLAY[substrate]
    assert service.audit() == {"a": True, "b": True}
