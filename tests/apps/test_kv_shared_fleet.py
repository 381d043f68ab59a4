"""The store's one fleet: every key of a ``ReplicatedKVStore`` lives on
the same ``n`` servers, provisioned up front for ``max_keys`` keys."""

import pytest

from repro.apps.kv import KVConfig, ReplicatedKVStore
from repro.core import bounds
from repro.errors import ShardCapacityExceeded

SUBSTRATES = ("register", "max-register", "cas")
N, F, K = 5, 2, 2


def _store(max_keys=4, seed=0, substrate="register"):
    return ReplicatedKVStore(
        substrate=substrate,
        n=N,
        f=F,
        k_writers=K,
        seed=seed,
        max_keys=max_keys,
    )


class TestConfig:
    def test_max_keys_validated(self):
        with pytest.raises(ValueError):
            KVConfig(substrate="register", max_keys=0).validate()


@pytest.mark.parametrize("substrate", SUBSTRATES)
class TestOneFleetOnEverySubstrate:
    def test_one_crash_event_hits_every_key(self, substrate):
        store = _store(seed=3, substrate=substrate)
        store.session().put("a", "x")
        store.session().put("b", "y")
        store.crash_server(0)
        assert len(store.fleet.object_map.crashed_servers) == 1
        assert store.get("a") == "x"
        store.session(writer=1).put("b", "y2")
        assert store.get("b") == "y2"
        assert all(store.audit().values())

    def test_provisioned_space_is_table1_times_max_keys(self, substrate):
        store = _store(max_keys=3, substrate=substrate)
        # Table 1 at n = 2f+1, where lower and upper bound coincide
        per_key = bounds.table1_row(substrate, K, N, F)["upper"]
        assert store.fleet.total_objects == 3 * per_key
        store.session().put("a", 1)
        assert store.base_objects_per_key() == {"a": per_key}
        assert store.base_objects == per_key

    def test_key_past_max_keys_is_refused_typed(self, substrate):
        store = _store(max_keys=2, substrate=substrate)
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
        assert store.get("a") == 1
        assert store.get("b") == 2
        assert all(store.audit().values())

    def test_key_capacity_enforced(self):
        store = _store(max_keys=2)
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
        assert len(store.fleet.object_map.crashed_servers) == 1
        # ...and both keys keep working.
        assert store.get("a") == "x"
        store.session(writer=1).put("b", "y2")
        assert store.get("b") == "y2"

    def test_space_accounting_per_key(self):
        store = _store()
        store.session().put("a", 1)
        per_key = store.base_objects_per_key()
        # k=2 writers, n=5, f=2 at n=2f+1: k(2f+1) = 10 per key.
        assert per_key["a"] == 10
        assert store.base_objects == 10
        store.session().put("b", 2)
        assert store.base_objects == 20

    def test_fleet_total_provisioned_up_front(self):
        store = _store(max_keys=3)
        assert store.fleet.total_objects == 3 * 10

    def test_snapshot_and_audit(self):
        store = _store(seed=5)
        store.session().put("k1", "v1")
        store.session().put("k2", "v2")
        store.session(writer=1).put("k1", "v1b")
        assert store.snapshot() == {"k1": "v1b", "k2": "v2"}
        assert all(store.audit().values())

    def test_survives_f_crashes(self):
        store = _store(seed=7)
        store.session().put("a", "before")
        store.crash_server(1)
        store.crash_server(3)
        assert store.get("a") == "before"
        store.session(writer=1).put("a", "after")
        assert store.get("a") == "after"
        assert all(store.audit().values())
