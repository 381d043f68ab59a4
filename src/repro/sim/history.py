"""High-level operation history recording.

A :class:`History` listens to the kernel and records the schedule of
high-level (emulated) reads and writes: invocation time, return time,
arguments and results.  The consistency checkers consume histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.sim.events import EventListener, InvokeEvent, ReturnEvent
from repro.sim.ids import ClientId


@dataclass(slots=True)
class HistoryOp:
    """One high-level operation in a history (slotted: no ``__dict__``,
    as a long run keeps one per high-level op in every history)."""

    seq: int
    client_id: ClientId
    name: str
    args: tuple
    invoke_time: int
    return_time: Optional[int] = None
    result: Any = None

    @property
    def complete(self) -> bool:
        return self.return_time is not None

    @property
    def pending(self) -> bool:
        return self.return_time is None

    def precedes(self, other: "HistoryOp") -> bool:
        """Real-time precedence: self returns before other is invoked."""
        return self.complete and self.return_time < other.invoke_time

    def concurrent_with(self, other: "HistoryOp") -> bool:
        return not self.precedes(other) and not other.precedes(self)

    def __str__(self) -> str:
        span = (
            f"[{self.invoke_time},{self.return_time}]"
            if self.complete
            else f"[{self.invoke_time},pending]"
        )
        return f"{self.name}{self.args}->{self.result!r} by {self.client_id} {span}"


def is_sequential(operations: "Iterable[HistoryOp]") -> bool:
    """No two operations are concurrent (a sequential schedule).  Only
    neighbours in invocation order need checking: precedence is
    transitive."""
    ordered = sorted(operations, key=lambda op: op.invoke_time)
    return all(a.precedes(b) for a, b in zip(ordered, ordered[1:]))


class History(EventListener):
    """Recorded schedule of the emulated register's operations."""

    def __init__(self, write_name: str = "write", read_name: str = "read"):
        self.ops: "Dict[int, HistoryOp]" = {}
        self.write_name = write_name
        self.read_name = read_name

    # -- listener hooks ------------------------------------------------------

    def on_invoke(self, event: InvokeEvent) -> None:
        self.ops[event.seq] = HistoryOp(
            seq=event.seq,
            client_id=event.client_id,
            name=event.name,
            args=event.args,
            invoke_time=event.time,
        )

    def on_return(self, event: ReturnEvent) -> None:
        op = self.ops[event.seq]
        op.return_time = event.time
        op.result = event.result

    # -- queries ----------------------------------------------------------------

    def all_ops(self) -> "List[HistoryOp]":
        return sorted(self.ops.values(), key=lambda op: op.seq)

    @property
    def writes(self) -> "List[HistoryOp]":
        return [op for op in self.all_ops() if op.name == self.write_name]

    @property
    def reads(self) -> "List[HistoryOp]":
        return [op for op in self.all_ops() if op.name == self.read_name]

    @property
    def complete_ops(self) -> "List[HistoryOp]":
        return [op for op in self.all_ops() if op.complete]

    @property
    def pending_ops(self) -> "List[HistoryOp]":
        return [op for op in self.all_ops() if op.pending]

    def is_write_sequential(self) -> bool:
        """True iff no two writes are concurrent (the WS in WS-Safety)."""
        return is_sequential(self.writes)

    def is_write_only(self) -> bool:
        return not self.reads

    def __len__(self) -> int:
        return len(self.ops)

    def __str__(self) -> str:
        return "\n".join(str(op) for op in self.all_ops())

    def to_dicts(self) -> "List[dict]":
        """JSON-ready records of all operations (for archiving runs)."""

        def cell(value):
            if isinstance(value, (int, float, str, bool)) or value is None:
                return value
            return repr(value)

        return [
            {
                "seq": op.seq,
                "client": op.client_id.index,
                "name": op.name,
                "args": [cell(a) for a in op.args],
                "invoke": op.invoke_time,
                "return": op.return_time,
                "result": cell(op.result),
            }
            for op in self.all_ops()
        ]
