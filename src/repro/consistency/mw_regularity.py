"""Multi-writer regularity conditions (Shao, Welch, Pierce & Lee [34]).

The paper's WS-Regularity constrains only *write-sequential* runs and is
"weaker than the multi-writer regularity generalizations defined in
[34]"; it also leaves open whether its lower bound is tight for those
stronger conditions.  To make the comparison concrete this module
implements the two ends of the [34] spectrum over arbitrary histories:

* **MW-Weak** (per-read write orders): every complete read, together with
  *all* writes, admits a linearization — but different reads may order
  the writes differently.
* **MW-Strong** (one write order): a *single* permutation of the writes,
  consistent with their real-time order, works for every read
  simultaneously.

MW-Weak is WS-Regularity's read window
(:class:`repro.consistency.ws.ReadWindows`) without the
write-sequentiality precondition: the window never used it, so MW-Weak
is exact and takes O(log n) per read.  MW-Strong is an exact search
over write orders (exponential worst case), meant for the small
histories the simulator produces.

Facts the test-suite checks: atomicity implies MW-Strong implies
MW-Weak; on write-sequential histories both collapse to the paper's
WS-Regularity (the write order is forced); ABD without read write-back
satisfies MW-Weak on concurrent-write histories.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.consistency.ws import ReadWindows, WSViolation
from repro.errors import InvalidConfig
from repro.sim.history import History, HistoryOp


def _complete_reads(history: History) -> "List[HistoryOp]":
    return [r for r in history.reads if r.complete]


def check_mw_regular_weak(
    history: History, initial_value: Any = None
) -> "List[WSViolation]":
    """MW-Weak violations: reads that cannot be linearized with the writes.

    Each read is checked independently against the full write set (the
    literal per-read generalization of Lamport regularity to multiple
    writers), through its read window.
    """
    return [
        WSViolation(read, allowed=[], condition="MW-Weak")
        for read in ReadWindows(history, initial_value).violators()
    ]


def _write_orders(writes: "Sequence[HistoryOp]"):
    """All permutations of the writes consistent with real-time order."""
    remaining = list(writes)

    def extend(prefix, rest):
        if not rest:
            yield list(prefix)
            return
        for index, candidate in enumerate(rest):
            others = rest[:index] + rest[index + 1 :]
            # candidate may come next iff no other remaining write
            # precedes it.
            if any(other.precedes(candidate) for other in others):
                continue
            prefix.append(candidate)
            yield from extend(prefix, others)
            prefix.pop()

    yield from extend([], remaining)


def _read_fits_order(
    order: "Sequence[HistoryOp]", read: HistoryOp, initial_value: Any
) -> bool:
    """Can ``read`` be inserted into this write order legally?"""
    # Position p means: after order[p-1], before order[p].
    for position in range(len(order) + 1):
        before = order[:position]
        after = order[position:]
        if any(read.precedes(write) for write in before):
            continue  # a write after the read in real time placed before it
        if any(write.precedes(read) for write in after):
            continue  # a write before the read in real time placed after it
        expected = before[-1].args[0] if before else initial_value
        if read.result == expected:
            return True
    return False


def check_mw_regular_strong(
    history: History,
    initial_value: Any = None,
    max_writes: int = 7,
) -> "List[WSViolation]":
    """MW-Strong violations (empty list = satisfied).

    Searches for one real-time-consistent write permutation serving every
    read.  Histories with more than ``max_writes`` writes are rejected to
    keep the permutation search bounded (raise the cap explicitly for
    bigger histories).

    When no single order works, every read is reported (the condition is
    global, so no specific read is "the" violator); callers usually only
    test emptiness.
    """
    writes = history.writes
    if len(writes) > max_writes:
        raise InvalidConfig(
            f"history has {len(writes)} writes; raise max_writes"
            f" (exponential search) to check it"
        )
    reads = _complete_reads(history)
    if not reads:
        return []
    for order in _write_orders(writes):
        if all(
            _read_fits_order(order, read, initial_value) for read in reads
        ):
            return []
    return [
        WSViolation(read, allowed=[], condition="MW-Strong")
        for read in reads
    ]
