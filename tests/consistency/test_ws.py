"""Tests for WS-Regular / WS-Safe checkers."""

from repro.consistency.ws import ReadWindows, check_ws_regular, check_ws_safe
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


def _history(ops):
    history = History()
    for op in ops:
        history.ops[op.seq] = op
    return history


class TestWSSafe:
    def test_isolated_read_must_return_last_write(self):
        history = _history(
            [
                _op(0, "write", 1, 2, ("a",), "ack"),
                _op(1, "write", 3, 4, ("b",), "ack"),
                _op(2, "read", 5, 6, (), "b"),
            ]
        )
        assert check_ws_safe(history) == []

    def test_isolated_stale_read_flagged(self):
        history = _history(
            [
                _op(0, "write", 1, 2, ("a",), "ack"),
                _op(1, "write", 3, 4, ("b",), "ack"),
                _op(2, "read", 5, 6, (), "a"),
            ]
        )
        violations = check_ws_safe(history)
        assert len(violations) == 1
        assert violations[0].allowed == ["b"]

    def test_read_concurrent_with_write_unconstrained(self):
        history = _history(
            [
                _op(0, "write", 1, 10, ("a",), "ack"),
                _op(1, "read", 2, 9, (), "garbage"),
            ]
        )
        assert check_ws_safe(history) == []

    def test_initial_value(self):
        history = _history([_op(0, "read", 1, 2, (), "v0")])
        assert check_ws_safe(history, initial_value="v0") == []
        assert len(check_ws_safe(history, initial_value="other")) == 1

    def test_not_write_sequential_vacuous(self):
        history = _history(
            [
                _op(0, "write", 1, 10, ("a",), "ack"),
                _op(1, "write", 2, 9, ("b",), "ack"),
                _op(2, "read", 11, 12, (), "nonsense"),
            ]
        )
        assert check_ws_safe(history) == []

    def test_pending_read_ignored(self):
        history = _history(
            [
                _op(0, "write", 1, 2, ("a",), "ack"),
                _op(1, "read", 3, None, (), None),
            ]
        )
        assert check_ws_safe(history) == []


class TestWSRegular:
    def test_overlapping_read_may_return_old_or_new(self):
        writes = [
            _op(0, "write", 1, 2, ("a",), "ack"),
            _op(1, "write", 5, 10, ("b",), "ack"),
        ]
        for value in ("a", "b"):
            history = _history(writes + [_op(2, "read", 6, 9, (), value)])
            assert check_ws_regular(history, cross_check=True) == []

    def test_read_cannot_skip_back(self):
        history = _history(
            [
                _op(0, "write", 1, 2, ("a",), "ack"),
                _op(1, "write", 3, 4, ("b",), "ack"),
                _op(2, "read", 6, 9, (), "a"),
            ]
        )
        violations = check_ws_regular(history, cross_check=True)
        assert len(violations) == 1

    def test_read_cannot_return_future_write(self):
        history = _history(
            [
                _op(0, "write", 1, 2, ("a",), "ack"),
                _op(1, "read", 3, 4, (), "b"),
                _op(2, "write", 5, 6, ("b",), "ack"),
            ]
        )
        assert len(check_ws_regular(history, cross_check=True)) == 1

    def test_pending_write_value_allowed(self):
        history = _history(
            [
                _op(0, "write", 1, None, ("a",), None),
                _op(1, "read", 3, 4, (), "a"),
            ]
        )
        assert check_ws_regular(history, cross_check=True) == []

    def test_initial_value_allowed_before_any_write_completes(self):
        history = _history(
            [
                _op(0, "write", 5, 10, ("a",), "ack"),
                _op(1, "read", 6, 9, (), "v0"),
            ]
        )
        assert check_ws_regular(history, initial_value="v0", cross_check=True) == []

    def test_safe_implies_regular_on_isolated_reads(self):
        history = _history(
            [
                _op(0, "write", 1, 2, ("a",), "ack"),
                _op(1, "read", 3, 4, (), "a"),
            ]
        )
        assert check_ws_regular(history, cross_check=True) == []
        assert check_ws_safe(history) == []


class TestAllowedValueSets:
    def test_ws_safe_singleton(self):
        history = _history(
            [
                _op(0, "write", 1, 2, ("a",), "ack"),
                _op(1, "read", 3, 4, (), "a"),
            ]
        )
        read = history.reads[0]
        windows = ReadWindows(history)
        assert not windows.overlapped(read)  # WS-Safety constrains it
        assert windows.allowed(read) == ["a"]

    def test_ws_safe_none_for_concurrent(self):
        history = _history(
            [
                _op(0, "write", 1, 10, ("a",), "ack"),
                _op(1, "read", 2, 9, (), "a"),
            ]
        )
        read = history.reads[0]
        assert ReadWindows(history).overlapped(read)  # WS-Safety: unconstrained

    def test_ws_regular_window(self):
        history = _history(
            [
                _op(0, "write", 1, 2, ("a",), "ack"),
                _op(1, "write", 5, 20, ("b",), "ack"),
                _op(2, "read", 6, 10, (), "a"),
            ]
        )
        read = history.reads[0]
        assert set(ReadWindows(history).allowed(read)) == {"a", "b"}
