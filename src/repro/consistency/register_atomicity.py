"""Fast register atomicity (linearizability) test.

For *write-sequential* histories with distinct write values the test is
exact and linear-ish: the write order is fixed by real time, each read has
a window of writes it may legally return (the WS-Regular window), and
atomicity additionally forbids old-new inversions between reads ordered by
real time.  Feasibility of assigning each read a write index inside its
window, monotone along read precedence, is decided greedily.

For histories with concurrent writes the function falls back to the
general linearizability search of
:mod:`repro.consistency.linearizability`, which is exact but exponential
in the worst case.
"""

from __future__ import annotations

from typing import Any, List

from repro.consistency.linearizability import is_linearizable
from repro.consistency.specs import RegisterSpec, hashable_key
from repro.sim.history import History, HistoryOp


def _ordered_writes(history: History) -> "List[HistoryOp]":
    return sorted(history.writes, key=lambda w: w.invoke_time)


def _read_window(
    writes: "List[HistoryOp]", read: HistoryOp
) -> "tuple[int, int]":
    """Inclusive window ``[lo, hi]`` of write indices ``read`` may return.

    Index ``-1`` denotes the initial value.  ``lo`` is the last write that
    precedes the read; ``hi`` is the last write the read does not precede
    (a write the read precedes can only be linearized after it).
    """
    lo = -1
    hi = -1
    for index, write in enumerate(writes):
        if write.precedes(read):
            lo = index
        if not read.precedes(write):
            hi = index
    return lo, hi


def is_register_history_atomic(
    history: History, initial_value: Any = None
) -> bool:
    """True iff the high-level history is linearizable as a register.

    Requires distinct write values on the fast (write-sequential) path so
    a read's result identifies the write it read from.  Pending reads are
    unconstrained; a pending final write may or may not take effect.
    """
    if not history.is_write_sequential():
        ops = [op for op in history.all_ops()]
        return is_linearizable(ops, RegisterSpec(initial_value))

    writes = _ordered_writes(history)
    values = [w.args[0] for w in writes]

    # Unhashable payloads (lists, dicts) are keyed by repr so the fast
    # path still works for them.
    value_keys = [hashable_key(v) for v in values]
    if len(set(value_keys)) != len(value_keys):
        # Duplicate write values: results no longer identify writes; use
        # the exact search instead.
        return is_linearizable(
            list(history.all_ops()), RegisterSpec(initial_value)
        )

    if hashable_key(initial_value) in value_keys:
        # A read returning this value is ambiguous (initial or written);
        # decide exactly instead.
        return is_linearizable(
            list(history.all_ops()), RegisterSpec(initial_value)
        )
    value_to_index = {vk: index for index, vk in enumerate(value_keys)}

    reads = sorted(
        (r for r in history.reads if r.complete),
        key=lambda r: r.invoke_time,
    )
    # Each read's result identifies the write it read from, so we only
    # check its window and monotonicity along read precedence.
    assigned: "List[tuple[HistoryOp, int]]" = []
    for read in reads:
        result_key = hashable_key(read.result)
        if read.result == initial_value:
            index = -1
        elif result_key in value_to_index:
            index = value_to_index[result_key]
        else:
            return False  # read returned a never-written value
        lo, hi = _read_window(writes, read)
        if index < lo or index > hi:
            return False
        required = max(
            (j for other, j in assigned if other.precedes(read)),
            default=-1,
        )
        if index < required:
            return False  # old-new inversion
        assigned.append((read, index))
    return True
