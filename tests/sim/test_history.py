"""Tests for history recording and precedence queries."""

from repro.sim.history import History, HistoryOp
from repro.sim.ids import ClientId


def _op(seq, name, invoke, ret=None, args=(), result=None, client=0):
    return HistoryOp(
        seq=seq,
        client_id=ClientId(client),
        name=name,
        args=args,
        invoke_time=invoke,
        return_time=ret,
        result=result,
    )


def _history(ops):
    history = History()
    for op in ops:
        history.ops[op.seq] = op
    return history


class TestPrecedence:
    def test_precedes(self):
        first = _op(0, "write", 1, 2)
        second = _op(1, "write", 3, 4)
        assert first.precedes(second)
        assert not second.precedes(first)

    def test_concurrent_overlapping(self):
        first = _op(0, "write", 1, 5)
        second = _op(1, "write", 3, 8)
        assert first.concurrent_with(second)
        assert second.concurrent_with(first)

    def test_pending_precedes_nothing(self):
        pending = _op(0, "write", 1, None)
        later = _op(1, "write", 100, 101)
        assert not pending.precedes(later)
        assert pending.concurrent_with(later)


class TestWriteSequential:
    def test_sequential_writes(self):
        history = _history(
            [_op(0, "write", 1, 2), _op(1, "write", 3, 4), _op(2, "read", 5, 6)]
        )
        assert history.is_write_sequential()

    def test_overlapping_writes_not_sequential(self):
        history = _history([_op(0, "write", 1, 5), _op(1, "write", 3, 8)])
        assert not history.is_write_sequential()

    def test_overlapping_reads_still_sequential(self):
        history = _history(
            [_op(0, "write", 1, 2), _op(1, "read", 3, 9), _op(2, "read", 4, 8)]
        )
        assert history.is_write_sequential()

    def test_pending_write_before_later_write_not_sequential(self):
        history = _history([_op(0, "write", 1, None), _op(1, "write", 5, 6)])
        assert not history.is_write_sequential()


class TestQueries:
    def test_partition_reads_writes(self):
        history = _history(
            [_op(0, "write", 1, 2), _op(1, "read", 3, 4), _op(2, "write", 5, 6)]
        )
        assert len(history.writes) == 2
        assert len(history.reads) == 1

    def test_complete_and_pending(self):
        history = _history([_op(0, "write", 1, 2), _op(1, "write", 3, None)])
        assert len(history.complete_ops) == 1
        assert len(history.pending_ops) == 1

    def test_write_only(self):
        history = _history([_op(0, "write", 1, 2)])
        assert history.is_write_only()

    def test_len(self):
        history = _history([_op(0, "write", 1, 2), _op(1, "read", 3, 4)])
        assert len(history) == 2
