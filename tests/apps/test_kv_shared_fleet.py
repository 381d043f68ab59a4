"""The store's one fleet: every key of a one-shard ``ShardedKVService``
lives on the same ``n`` servers, provisioned up front for ``capacity``
keys."""

import pytest

from repro.apps.shard import ShardServiceConfig
from repro.core import bounds
from repro.errors import ShardCapacityExceeded

from tests.conftest import one_shard_service

SUBSTRATES = ("register", "max-register", "cas")
N, F, K = 5, 2, 2


def _store(capacity=4, seed=0, substrate="register"):
    return one_shard_service(
        substrate, n=N, f=F, k_writers=K, capacity=capacity, seed=seed
    )


def _base_objects(store):
    """Base objects behind the keys in use (Table 1, aggregated)."""
    return len(store.keys()) * store.fleets[0].objects_per_slot


class TestConfig:
    def test_max_keys_validated(self):
        with pytest.raises(ValueError):
            ShardServiceConfig.make(
                shards=1, substrate="register", capacity=0
            )


@pytest.mark.parametrize("substrate", SUBSTRATES)
class TestOneFleetOnEverySubstrate:
    def test_one_crash_event_hits_every_key(self, substrate):
        store = _store(seed=3, substrate=substrate)
        store.session().put("a", "x")
        store.session().put("b", "y")
        store.crash_server(0)
        assert len(store.fleets[0].object_map.crashed_servers) == 1
        assert store.session(writer=None).get("a") == "x"
        store.session(writer=1).put("b", "y2")
        assert store.session(writer=None).get("b") == "y2"
        assert all(store.audit().values())

    def test_provisioned_space_is_table1_times_max_keys(self, substrate):
        store = _store(capacity=3, substrate=substrate)
        # Table 1 at n = 2f+1, where lower and upper bound coincide
        per_key = bounds.table1_row(substrate, K, N, F)["upper"]
        assert store.fleets[0].total_objects == 3 * per_key
        store.session().put("a", 1)
        assert store.fleets[0].objects_per_slot == per_key
        assert _base_objects(store) == per_key

    def test_key_past_max_keys_is_refused_typed(self, substrate):
        store = _store(capacity=2, substrate=substrate)
        store.session().put("a", 1)
        store.session().put("b", 2)
        with pytest.raises(ShardCapacityExceeded):
            store.session().put("c", 3)
        assert store.keys() == ["a", "b"]


class TestSharedOperations:
    def test_put_get_multiple_keys(self):
        store = _store()
        store.session().put("a", 1)
        store.session(writer=1).put("b", 2)
        assert store.session(writer=None).get("a") == 1
        assert store.session(writer=None).get("b") == 2
        assert all(store.audit().values())

    def test_key_capacity_enforced(self):
        store = _store(capacity=2)
        store.session().put("a", 1)
        store.session().put("b", 2)
        with pytest.raises(RuntimeError):
            store.session().put("c", 3)

    def test_single_crash_event_hits_all_keys(self):
        store = _store(seed=3)
        store.session().put("a", "x")
        store.session().put("b", "y")
        store.crash_server(0)
        # The shared object map shows exactly one crashed server...
        assert len(store.fleets[0].object_map.crashed_servers) == 1
        # ...and both keys keep working.
        assert store.session(writer=None).get("a") == "x"
        store.session(writer=1).put("b", "y2")
        assert store.session(writer=None).get("b") == "y2"

    def test_space_accounting_per_key(self):
        store = _store()
        store.session().put("a", 1)
        # k=2 writers, n=5, f=2 at n=2f+1: k(2f+1) = 10 per key.
        assert store.fleets[0].objects_per_slot == 10
        assert _base_objects(store) == 10
        store.session().put("b", 2)
        assert _base_objects(store) == 20

    def test_fleet_total_provisioned_up_front(self):
        store = _store(capacity=3)
        assert store.fleets[0].total_objects == 3 * 10

    def test_snapshot_and_audit(self):
        store = _store(seed=5)
        store.session().put("k1", "v1")
        store.session().put("k2", "v2")
        store.session(writer=1).put("k1", "v1b")
        assert store.session(writer=None).scan() == {"k1": "v1b", "k2": "v2"}
        assert all(store.audit().values())

    def test_survives_f_crashes(self):
        store = _store(seed=7)
        store.session().put("a", "before")
        store.crash_server(1)
        store.crash_server(3)
        assert store.session(writer=None).get("a") == "before"
        store.session(writer=1).put("a", "after")
        assert store.session(writer=None).get("a") == "after"
        assert all(store.audit().values())
