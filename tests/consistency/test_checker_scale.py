"""Scale behaviour of the exact checkers: memoization keeps realistic
histories tractable.

Linearizability checking is NP-complete in general; the Wing-Gong memo
keeps our history sizes (dozens of ops) fast.  These tests run the
checkers on deliberately wide histories and assert they finish — with
step/op-count shapes that would blow up a memoless search.
"""

from repro.consistency.linearizability import (
    find_linearization,
    is_linearizable,
)
from repro.consistency.mw_regularity import check_mw_regular_weak
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.specs import MaxRegisterSpec, RegisterSpec
from repro.consistency.ws import check_ws_regular, check_ws_safe
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


class TestWideConcurrentHistories:
    def test_16_concurrent_writes_one_read(self):
        """All writes pairwise concurrent: 16! orders naively, fine with
        memoization because the register state collapses."""
        ops = [
            _op(i, "write", 1, 100, (f"v{i}",), "ack", client=i)
            for i in range(16)
        ]
        ops.append(_op(99, "read", 101, 102, (), "v7", client=99))
        assert is_linearizable(ops, RegisterSpec(None))

    def test_12_concurrent_writes_bad_read(self):
        """The unsatisfiable case is the true worst case (the memo must
        exhaust all subset states); 12 writes keeps it well under a
        second while still far beyond a memoless search."""
        ops = [
            _op(i, "write", 1, 100, (f"v{i}",), "ack", client=i)
            for i in range(12)
        ]
        ops.append(_op(99, "read", 101, 102, (), "ghost", client=99))
        assert not is_linearizable(ops, RegisterSpec(None))

    def test_monotone_maxregister_history_wide(self):
        ops = [
            _op(i, "write_max", 1, 100, (i,), "ok", client=i)
            for i in range(14)
        ]
        ops.append(_op(99, "read_max", 101, 102, (), 13, client=99))
        assert is_linearizable(ops, MaxRegisterSpec(-1))

    def test_interleaved_rounds(self):
        """Alternating sequential blocks of concurrent pairs: 20 ops with
        genuine precedence structure."""
        ops = []
        seq = 0
        time = 1
        last_value = None
        for block in range(5):
            a = f"b{block}a"
            b = f"b{block}b"
            ops.append(
                _op(seq, "write", time, time + 3, (a,), "ack", client=0)
            )
            seq += 1
            ops.append(
                _op(seq, "write", time + 1, time + 4, (b,), "ack", client=1)
            )
            seq += 1
            ops.append(
                _op(seq, "read", time + 5, time + 6, (), b, client=2)
            )
            last_value = b
            seq += 1
            time += 8
        assert is_linearizable(ops, RegisterSpec(None))
        # Flip the final read to an early block's value: must fail.
        ops[-1] = _op(
            ops[-1].seq,
            "read",
            ops[-1].invoke_time,
            ops[-1].return_time,
            (),
            "b0a",
            client=2,
        )
        assert not is_linearizable(ops, RegisterSpec(None))


class TestLongHistories:
    """One key of a loaded KV service collects thousands of operations;
    the search keeps one explicit frame per operation, so its depth is
    not bounded by the interpreter's recursion limit, and the read-window
    checkers sort the writes once rather than once per read."""

    @staticmethod
    def _single_key_history(n, stale_at=None):
        ops, last = [], None
        for seq in range(n):
            start = 3 * seq
            # Each op overlaps the next (returns at start + 4).
            if seq % 3 == 0:
                ops.append(
                    _op(seq, "write", start, start + 2, (seq,), "ack")
                )
                last = seq
            else:
                result = last - 3 if seq == stale_at else last
                ops.append(
                    _op(seq, "read", start, start + 4, (), result, 1 + seq % 2)
                )
        return ops

    def test_3000_ops_on_one_key_under_the_default_recursion_limit(self):
        import sys

        assert sys.getrecursionlimit() <= 1_000
        ops = self._single_key_history(3_000)
        order = find_linearization(ops, RegisterSpec(None))
        assert order is not None and len(order) == 3_000

    def test_one_stale_read_among_3000_ops_is_found(self):
        ops = self._single_key_history(3_000, stale_at=2_000)
        assert not is_linearizable(ops, RegisterSpec(None))

    def test_window_checkers_on_20000_ops(self):
        def history(**kwargs):
            recorded = History()
            for op in self._single_key_history(20_000, **kwargs):
                recorded.ops[op.seq] = op
            return recorded

        clean = history()
        assert clean.is_write_sequential()
        assert check_ws_safe(clean) == []
        assert check_ws_regular(clean) == []
        assert check_mw_regular_weak(clean) == []
        assert is_register_history_atomic(clean)
        # Read 10,000 returns a superseded value, and no write overlaps it.
        stale = history(stale_at=10_000)
        for check in (check_ws_safe, check_ws_regular, check_mw_regular_weak):
            assert [v.read.seq for v in check(stale)] == [10_000]
        assert not is_register_history_atomic(stale)
