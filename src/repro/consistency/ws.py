"""Write-Sequential Regularity and Write-Sequential Safety checkers.

Definitions (Section 2 / Appendix A.3 of the paper):

* **WS-Regular**: for every write-sequential schedule, for each complete
  read ``rd`` there is a linearization of the subsequence consisting of
  ``rd`` and all the writes.
* **WS-Safe**: as WS-Regular, but only required for complete reads that
  are not concurrent with any write.

Both are one exact test, :class:`ReadWindows`: the writes a read may
return.  A linearization of ``rd`` with all the writes puts some write
``W`` last before ``rd``.  That works iff ``rd`` does not precede ``W``
and no write ``W'`` has ``W -> W' -> rd`` (``W'`` would have to come
between them); the initial value works iff no write precedes ``rd``.
The test never assumes write-sequentiality, so it is also MW-Weak
regularity (:mod:`repro.consistency.mw_regularity`).  On a
write-sequential history a read that no write overlaps has one allowed
value, the last preceding write's (or the initial value): WS-Safety.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import inf
from typing import Any, Dict, Hashable, Iterator, List, Tuple

from repro.consistency.linearizability import is_linearizable
from repro.consistency.specs import RegisterSpec, hashable_key
from repro.sim.history import History, HistoryOp


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


def _written_value(write: HistoryOp) -> Any:
    (value,) = write.args
    return value


def _end(op: HistoryOp) -> float:
    """When ``op`` returned; never, while it is pending."""
    return op.return_time if op.complete else inf


class ReadWindows:
    """The values each read of ``history`` may return, from one write sort.

    Queries bisect with the strict ``<`` of :meth:`HistoryOp.precedes`.
    A read's *floor* is the latest invocation among the writes preceding
    it: a write that returned before the floor precedes one of those
    writes, so the read may not return it.
    """

    def __init__(self, history: History, initial_value: Any = None):
        self.history = history
        self.initial_value = initial_value
        self.writes = sorted(history.writes, key=lambda w: w.invoke_time)
        self._invokes = [w.invoke_time for w in self.writes]
        returned = sorted(
            (w.return_time, w.invoke_time) for w in self.writes if w.complete
        )
        self._returns = [ret for ret, _ in returned]
        # _floors[i]: the latest invocation among the first i writes
        # to return.
        self._floors = list(
            accumulate((inv for _, inv in returned), max, initial=-inf)
        )
        # Per written value: its writes' invocations, and the latest end
        # among the writes invoked so far.
        self._by_value: "Dict[Hashable, Tuple[List[int], List[float]]]" = {}
        for w in self.writes:
            key = hashable_key(_written_value(w))
            invokes, ends = self._by_value.setdefault(key, ([], []))
            invokes.append(w.invoke_time)
            ends.append(max(_end(w), ends[-1] if ends else -inf))

    def _span(self, read: HistoryOp) -> "Tuple[int, int]":
        """(writes preceding ``read``, writes ``read`` does not precede)."""
        return (
            bisect_left(self._returns, read.invoke_time),
            bisect_right(self._invokes, _end(read)),
        )

    def overlapped(self, read: HistoryOp) -> bool:
        """Some write is concurrent with ``read``."""
        before, upto = self._span(read)
        return upto > before

    def admits(self, read: HistoryOp) -> bool:
        """The complete ``read``'s result is one it may return."""
        before, _ = self._span(read)
        if not before and read.result == self.initial_value:
            return True
        group = self._by_value.get(hashable_key(read.result))
        if group is None:
            return False
        invokes, ends = group
        count = bisect_right(invokes, read.return_time)
        return count > 0 and ends[count - 1] >= self._floors[before]

    def allowed(self, read: HistoryOp) -> "List[Any]":
        """The values ``read`` may return, in write invocation order."""
        before, upto = self._span(read)
        floor = self._floors[before]
        values = [] if before else [self.initial_value]
        values.extend(
            _written_value(w) for w in self.writes[:upto] if _end(w) >= floor
        )
        return values

    def violators(self) -> "Iterator[HistoryOp]":
        """The complete reads whose result they may not return."""
        return (
            read
            for read in self.history.reads
            if read.complete and not self.admits(read)
        )


def check_ws_safe(
    history: History, initial_value: Any = None
) -> "List[WSViolation]":
    """All WS-Safety violations in a history (empty list = satisfied).

    If the history is not write-sequential the condition is vacuous and an
    empty list is returned.
    """
    if not history.is_write_sequential():
        return []
    windows = ReadWindows(history, initial_value)
    return [
        WSViolation(read, windows.allowed(read), "WS-Safe")
        for read in windows.violators()
        if not windows.overlapped(read)
    ]


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
    windows = ReadWindows(history, initial_value)
    if cross_check:
        spec = RegisterSpec(initial_value)
        for read in history.reads:
            if read.complete:
                ok = windows.admits(read)
                slow = is_linearizable(windows.writes + [read], spec)
                assert slow == ok, (
                    f"fast/slow WS-Regular disagreement on {read}:"
                    f" fast={ok} slow={slow}"
                )
    return [
        WSViolation(read, windows.allowed(read), "WS-Regular")
        for read in windows.violators()
    ]
