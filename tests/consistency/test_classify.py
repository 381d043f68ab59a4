"""The consistency-strength ladder: atomic, MW-Strong, MW-Weak, WS-Safe.

Each history sits at exactly one rung: it satisfies the named condition
and fails the next stronger one.
"""

from repro.consistency.mw_regularity import (
    check_mw_regular_strong,
    check_mw_regular_weak,
)
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.ws import check_ws_safe
from repro.sim.history import History, HistoryOp
from repro.sim.ids import ClientId


def _op(seq, name, invoke, ret, args=(), result=None, client=0):
    return HistoryOp(
        seq=seq,
        client_id=ClientId(client),
        name=name,
        args=args,
        invoke_time=invoke,
        return_time=ret,
        result=result,
    )


def _history(entries):
    history = History()
    for op in entries:
        history.ops[op.seq] = op
    return history


class TestClassification:
    def test_atomic_history(self):
        history = _history(
            [
                _op(0, "write", 1, 2, ("a",), "ack"),
                _op(1, "read", 3, 4, (), "a"),
            ]
        )
        assert is_register_history_atomic(history)

    def test_mw_weak_but_not_strong(self):
        """Concurrent writes; sequential reads disagree on their order:
        weak holds (per-read orders), strong does not; atomicity fails."""
        history = _history(
            [
                _op(0, "write", 1, 10, ("a",), "ack", client=0),
                _op(1, "write", 2, 9, ("b",), "ack", client=1),
                _op(2, "read", 11, 12, (), "a", client=2),
                _op(3, "read", 13, 14, (), "b", client=2),
                _op(4, "read", 15, 16, (), "a", client=2),
            ]
        )
        assert not is_register_history_atomic(history)
        assert check_mw_regular_strong(history) != []
        assert check_mw_regular_weak(history) == []

    def test_regular_but_not_atomic(self):
        """A new-old read inversion under a concurrent write: every read
        individually linearizes with the writes (MW-Weak and, with one
        write order, MW-Strong) but no total order with reads exists."""
        history = _history(
            [
                _op(0, "write", 1, 2, ("a",), "ack"),
                _op(1, "write", 3, 30, ("b",), "ack"),
                _op(2, "read", 4, 5, (), "b", client=1),
                _op(3, "read", 6, 7, (), "a", client=1),
            ]
        )
        assert not is_register_history_atomic(history)
        assert check_mw_regular_strong(history) == []

    def test_ws_safe_only(self):
        """A read concurrent with a write returning garbage: WS-Safety
        does not constrain it, the regularity conditions do."""
        history = _history(
            [
                _op(0, "write", 1, 10, ("a",), "ack"),
                _op(1, "read", 2, 9, (), "garbage", client=1),
            ]
        )
        assert check_mw_regular_strong(history, initial_value="v0") != []
        assert check_mw_regular_weak(history, initial_value="v0") != []
        assert check_ws_safe(history, initial_value="v0") == []

    def test_none(self):
        """An isolated read returning garbage violates even WS-Safety."""
        history = _history(
            [
                _op(0, "write", 1, 2, ("a",), "ack"),
                _op(1, "read", 3, 4, (), "garbage", client=1),
            ]
        )
        assert check_ws_safe(history, initial_value="v0") != []

    def test_strength_order_on_emulations(self):
        from repro.core.abd import ABDEmulation
        from repro.sim.scheduling import RandomScheduler

        emu = ABDEmulation(n=3, f=1, scheduler=RandomScheduler(3))
        a, b = emu.add_client(), emu.add_client()
        a.enqueue("write", "x")
        b.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        assert is_register_history_atomic(emu.history)
