"""The register checkers as they stood before the read window: a test oracle.

A verbatim copy of the code that :class:`repro.consistency.ws.ReadWindows`
replaced — WS-Safety and WS-Regularity from ``repro.consistency.ws``,
the register atomicity test from
``repro.consistency.register_atomicity``, MW-Weak regularity from
``repro.consistency.mw_regularity`` (a linearizability search per read),
and the pairwise write-sequentiality test of ``History``.
``tests/consistency/test_checkers_oracle.py`` holds the production
checkers to this copy: equal verdicts and equal violation strings.  Do
not optimise it: it is the reference, like ``tests/net/wire_reference.py``
is for the binary codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

from repro.consistency.linearizability import is_linearizable
from repro.consistency.specs import RegisterSpec, hashable_key
from repro.sim.history import History, HistoryOp

# -- History.is_write_sequential -------------------------------------------


def is_write_sequential(history: History) -> bool:
    """True iff no two writes are concurrent (the WS in WS-Safety)."""
    writes = history.writes
    for i, first in enumerate(writes):
        for second in writes[i + 1 :]:
            if first.concurrent_with(second):
                return False
    return True


# -- repro.consistency.ws --------------------------------------------------


@dataclass
class WSViolation:
    """A read that violates the checked condition."""

    read: HistoryOp
    allowed: "List[Any]"
    condition: str

    def __str__(self) -> str:
        return (
            f"{self.condition} violation: {self.read} returned"
            f" {self.read.result!r}, allowed {self.allowed!r}"
        )


def _ordered_writes(history: History) -> "List[HistoryOp]":
    """Writes in their (write-sequential) real-time order."""
    return sorted(history.writes, key=lambda w: w.invoke_time)


def _written_value(write: HistoryOp) -> Any:
    (value,) = write.args
    return value


def _last_preceding_write_index(
    writes: "List[HistoryOp]", read: HistoryOp
) -> int:
    """Index of the last write preceding ``read``; -1 if none."""
    last = -1
    for index, write in enumerate(writes):
        if write.precedes(read):
            last = index
    return last


def valid_read_values_ws_safe(
    history: History, read: HistoryOp, initial_value: Any = None
) -> "List[Any]":
    """Values WS-Safety allows ``read`` to return (singleton or empty).

    Only meaningful for reads not concurrent with any write; for other
    reads WS-Safety imposes no constraint and every value is allowed —
    signalled by returning ``None``.
    """
    writes = _ordered_writes(history)
    if any(read.concurrent_with(write) for write in writes):
        return None  # unconstrained
    last = _last_preceding_write_index(writes, read)
    if last < 0:
        return [initial_value]
    return [_written_value(writes[last])]


def valid_read_values_ws_regular(
    history: History, read: HistoryOp, initial_value: Any = None
) -> "List[Any]":
    """Values WS-Regularity allows ``read`` to return."""
    writes = _ordered_writes(history)
    last = _last_preceding_write_index(writes, read)
    allowed: "List[Any]" = []
    if last < 0:
        allowed.append(initial_value)
    for index, write in enumerate(writes):
        if index < last:
            continue  # superseded by a write that must precede the read
        if read.precedes(write):
            continue  # the write must follow the read
        allowed.append(_written_value(write))
    return allowed


def check_ws_safe(
    history: History, initial_value: Any = None
) -> "List[WSViolation]":
    """All WS-Safety violations in a history (empty list = satisfied).

    If the history is not write-sequential the condition is vacuous and an
    empty list is returned.
    """
    if not history.is_write_sequential():
        return []
    violations = []
    for read in history.reads:
        if not read.complete:
            continue
        allowed = valid_read_values_ws_safe(history, read, initial_value)
        if allowed is None:
            continue  # concurrent with a write: unconstrained
        if read.result not in allowed:
            violations.append(WSViolation(read, allowed, "WS-Safe"))
    return violations


def check_ws_regular(
    history: History,
    initial_value: Any = None,
    cross_check: bool = False,
) -> "List[WSViolation]":
    """All WS-Regularity violations in a history (empty list = satisfied).

    With ``cross_check=True`` every read is additionally validated through
    the general linearizability search over ``writes + {rd}`` — the
    literal Appendix A.3 definition — and a disagreement raises
    ``AssertionError`` (used by the test suite to validate the fast path).
    """
    if not history.is_write_sequential():
        return []
    violations = []
    writes = _ordered_writes(history)
    for read in history.reads:
        if not read.complete:
            continue
        allowed = valid_read_values_ws_regular(history, read, initial_value)
        ok = read.result in allowed
        if cross_check:
            spec = RegisterSpec(initial_value)
            slow = is_linearizable(writes + [read], spec)
            assert slow == ok, (
                f"fast/slow WS-Regular disagreement on {read}:"
                f" fast={ok} slow={slow}"
            )
        if not ok:
            violations.append(WSViolation(read, allowed, "WS-Regular"))
    return violations


# -- repro.consistency.register_atomicity ----------------------------------


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


# -- repro.consistency.mw_regularity ---------------------------------------


def _complete_reads(history: History) -> "List[HistoryOp]":
    return [r for r in history.reads if r.complete]


def check_mw_regular_weak(
    history: History, initial_value: Any = None
) -> "List[WSViolation]":
    """MW-Weak violations: reads that cannot be linearized with the writes.

    Each read is checked independently against the full write set (the
    literal per-read generalization of Lamport regularity to multiple
    writers).
    """
    writes = history.writes
    spec = RegisterSpec(initial_value)
    violations = []
    for read in _complete_reads(history):
        if not is_linearizable(writes + [read], spec):
            violations.append(
                WSViolation(read, allowed=[], condition="MW-Weak")
            )
    return violations
