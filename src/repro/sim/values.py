"""Timestamped values used by the emulation algorithms.

Algorithm 2 (and multi-writer ABD) stores ``TSVal`` pairs in base objects:
a payload value tagged with a timestamp.  The paper notes that in
write-sequential runs no writer-id tie-break is required; we carry one
anyway (see DESIGN.md, "Modeling choices") so histories of concurrent runs
remain totally ordered and the consistency checkers stay well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import InvalidConfig


@dataclass(frozen=True)
class TSVal:
    """A value tagged with a ``(ts, wid)`` timestamp.

    Ordering compares ``(ts, wid)`` lexicographically and ignores the
    payload, which matches the max-register value domain used by the
    ABD-style emulations: a bigger timestamp always wins, and two writes
    with equal timestamps are ordered by writer id.
    """

    ts: int
    wid: int = 0
    val: Any = field(default=None, compare=False)

    def key(self) -> tuple:
        """The comparison key ``(ts, wid)``."""
        return (self.ts, self.wid)

    # Comparisons spell out the (ts, wid) lexicographic order instead of
    # building key() tuples: collects compare timestamps on every scan
    # response, so the tuple allocations showed up in kernel profiles.

    def __lt__(self, other: "TSVal") -> bool:
        if self.ts != other.ts:
            return self.ts < other.ts
        return self.wid < other.wid

    def __le__(self, other: "TSVal") -> bool:
        if self.ts != other.ts:
            return self.ts < other.ts
        return self.wid <= other.wid

    def __gt__(self, other: "TSVal") -> bool:
        if self.ts != other.ts:
            return self.ts > other.ts
        return self.wid > other.wid

    def __ge__(self, other: "TSVal") -> bool:
        if self.ts != other.ts:
            return self.ts > other.ts
        return self.wid >= other.wid

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TSVal):
            return NotImplemented
        return self.ts == other.ts and self.wid == other.wid

    def __hash__(self) -> int:
        return hash(self.key())

    def __str__(self) -> str:
        return f"<ts={self.ts},wid={self.wid},val={self.val!r}>"


def bottom_tsval(initial_value: Any = None) -> TSVal:
    """The initial register content ``<0, v0>`` of Algorithm 2."""
    return TSVal(ts=0, wid=-1, val=initial_value)


def max_tsval(values: "list[TSVal]") -> TSVal:
    """Return the largest :class:`TSVal` of a non-empty list."""
    if not values:
        raise InvalidConfig("max_tsval of an empty list")
    best = values[0]
    for candidate in values[1:]:
        if candidate > best:
            best = candidate
    return best
