"""The session API of the one-shard KV store (``ShardedKVService``).

Covers the client surface: session lifecycle, concurrent sessions on one
store, writer-bound enforcement, read-only sessions and typed failures.
"""

import pytest

from repro.apps.shard import ServiceSession
from repro.errors import (
    QuorumUnavailable,
    ReproError,
    ShardCapacityExceeded,
    WriterBoundExceeded,
)

from tests.conftest import one_shard_service


class TestSessionLifecycle:
    def test_session_put_get_delete(self):
        store = one_shard_service("max-register", n=3, f=1)
        with store.session(writer=0) as s:
            s.put("alpha", 1)
            assert s.get("alpha") == 1
            s.delete("alpha")
            assert s.get("alpha") is None
            assert s.get("alpha", default="gone") == "gone"

    def test_session_is_context_manager(self):
        store = one_shard_service("max-register", n=3, f=1)
        with store.session() as s:
            assert isinstance(s, ServiceSession)
            assert not s.closed
        assert s.closed

    def test_closed_session_refuses_operations(self):
        store = one_shard_service("max-register", n=3, f=1)
        s = store.session(writer=0)
        s.put("alpha", 1)
        s.close()
        with pytest.raises(RuntimeError):
            s.put("alpha", 2)
        with pytest.raises(RuntimeError):
            s.get("alpha")
        with pytest.raises(RuntimeError):
            s.delete("alpha")
        with pytest.raises(RuntimeError):
            s.scan()

    def test_scan_filters_by_prefix(self):
        store = one_shard_service("max-register", n=3, f=1)
        with store.session(writer=0) as s:
            s.put("user:1", "ada")
            s.put("user:2", "grace")
            s.put("cart:9", ["book"])
            assert s.scan("user:") == {"user:1": "ada", "user:2": "grace"}
            assert set(s.scan()) == {"user:1", "user:2", "cart:9"}


class TestConcurrentSessions:
    def test_many_sessions_one_store(self):
        store = one_shard_service("register", n=3, f=1, k_writers=4)
        sessions = [store.session(writer=i) for i in range(4)]
        for i, s in enumerate(sessions):
            s.put(f"key-{i}", f"v{i}")
        # Sessions see each other's writes immediately.
        with store.session(writer=None) as reader:
            for i in range(4):
                assert reader.get(f"key-{i}") == f"v{i}"
        for s in sessions:
            s.close()

    def test_interleaved_writers_same_key_audit(self):
        store = one_shard_service("max-register", n=5, f=2)
        a = store.session(writer=0)
        b = store.session(writer=1)
        for round_index in range(3):
            a.put("shared", f"a{round_index}")
            b.put("shared", f"b{round_index}")
        assert store.session(writer=None).get("shared") == "b2"
        assert all(store.audit().values())


class TestWriterBound:
    def test_out_of_range_writer_rejected(self):
        """A negative identity is refused at open; one past the register
        bound at its first write, before it claims a slot."""
        store = one_shard_service("register", n=3, f=1, k_writers=2)
        with pytest.raises(WriterBoundExceeded):
            store.session(writer=-1)
        with pytest.raises(WriterBoundExceeded):
            store.session(writer=2).put("alpha", 1)
        assert store.keys() == []

    def test_bound_error_is_still_a_value_error(self):
        store = one_shard_service("register", n=3, f=1, k_writers=2)
        with pytest.raises(ValueError):
            store.session(writer=99).put("alpha", 1)

    def test_read_only_session_cannot_write(self):
        store = one_shard_service("max-register", n=3, f=1)
        with store.session(writer=0) as s:
            s.put("alpha", 1)
        with store.session(writer=None) as reader:
            assert reader.get("alpha") == 1
            with pytest.raises(WriterBoundExceeded):
                reader.put("alpha", 2)
            with pytest.raises(WriterBoundExceeded):
                reader.delete("alpha")


class TestQuorumFailureTyped:
    def test_too_many_crashes_raises_quorum_unavailable(self):
        store = one_shard_service("max-register", n=3, f=1)
        with store.session(writer=0) as s:
            s.put("alpha", 1)
            store.crash_server(0)
            store.crash_server(1)  # beyond f: the quorum is gone
            with pytest.raises(QuorumUnavailable):
                s.put("alpha", 2)

    def test_quorum_error_is_runtime_error_and_repro_error(self):
        store = one_shard_service("max-register", n=3, f=1)
        with store.session(writer=0) as s:
            s.put("alpha", 1)
            store.crash_server(0)
            store.crash_server(1)
            with pytest.raises(RuntimeError):
                s.get("alpha")
            store2 = one_shard_service("max-register", n=3, f=1)
            with store2.session(writer=0) as s2:
                s2.put("alpha", 1)
                store2.crash_server(0)
                store2.crash_server(1)
                with pytest.raises(ReproError):
                    s2.get("alpha")


class TestSharedFleetCapacityTyped:
    def test_full_fleet_raises_shard_capacity(self):
        store = one_shard_service(
            "register", n=3, f=1, k_writers=2, capacity=2
        )
        with store.session(writer=0) as s:
            s.put("a", 1)
            s.put("b", 2)
            with pytest.raises(ShardCapacityExceeded):
                s.put("c", 3)
