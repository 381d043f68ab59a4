"""Schedule formalities of Appendix A.1, as utilities.

The paper works with *schedules*: sequences of invocations and responses.
Our :class:`~repro.sim.history.History` is the same information in record
form; this module supplies the paper's notation over it —

* ``ops(sigma)``, ``complete(sigma)``, ``pending(sigma)``,
* the per-client projection ``sigma|i`` and subset projection
  ``sigma|X``,
* well-formedness ("each sigma|i is sequential"),
* sequential schedules (:func:`is_sequential`, the one neighbour check
  behind ``History.is_write_sequential``, re-exported here for the
  notation's sake),

plus an event-sequence view (:func:`to_event_sequence`) that renders a
history as the literal alternating invoke/response sequence, which the
schedule-level tests check for well-nesting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from repro.sim.history import History, HistoryOp, is_sequential
from repro.sim.ids import ClientId


def ops(history: History) -> "List[HistoryOp]":
    """``ops(sigma)``: all invoked operations."""
    return history.all_ops()


def complete(history: History) -> "List[HistoryOp]":
    """``complete(sigma)``: operations whose response is present."""
    return history.complete_ops


def pending(history: History) -> "List[HistoryOp]":
    """``pending(sigma)``: invoked operations with no response."""
    return history.pending_ops


def project_client(history: History, client_id: ClientId) -> "List[HistoryOp]":
    """``sigma|i``: the subsequence of client ``i``'s actions."""
    return [op for op in history.all_ops() if op.client_id == client_id]


def project_ops(
    history: History, subset: "Iterable[HistoryOp]"
) -> "List[HistoryOp]":
    """``sigma|X``: the subsequence of the operations in ``X``."""
    wanted = {op.seq for op in subset}
    return [op for op in history.all_ops() if op.seq in wanted]


def is_well_formed(history: History) -> bool:
    """Each client's projection is sequential (well-formed schedules are
    the only ones the paper considers; the client runtime guarantees this
    by construction — one in-flight high-level operation per client)."""
    clients = {op.client_id for op in history.all_ops()}
    return all(
        is_sequential(project_client(history, client_id))
        for client_id in clients
    )


@dataclass(frozen=True)
class ScheduleEvent:
    """One invocation or response event in a schedule."""

    time: int
    kind: str  # "invoke" | "response"
    op: HistoryOp

    def __str__(self) -> str:
        if self.kind == "invoke":
            return (
                f"{self.time}: inv {self.op.name}{self.op.args}"
                f" by {self.op.client_id}"
            )
        return (
            f"{self.time}: res {self.op.name} -> {self.op.result!r}"
            f" by {self.op.client_id}"
        )


def to_event_sequence(history: History) -> "List[ScheduleEvent]":
    """The literal schedule: invoke/response events in time order."""
    events: "List[ScheduleEvent]" = []
    for op in history.all_ops():
        events.append(ScheduleEvent(op.invoke_time, "invoke", op))
        if op.complete:
            events.append(ScheduleEvent(op.return_time, "response", op))
    events.sort(key=lambda event: (event.time, event.kind == "response"))
    return events


def validate_event_sequence(events: "Sequence[ScheduleEvent]") -> None:
    """Sanity of a schedule: every response follows its invocation, and no
    client has two operations in flight simultaneously."""
    in_flight: "dict[ClientId, int]" = {}
    invoked: "set[int]" = set()
    for event in events:
        client = event.op.client_id
        if event.kind == "invoke":
            assert event.op.seq not in invoked, "duplicate invocation"
            invoked.add(event.op.seq)
            assert in_flight.get(client) is None, (
                f"{client} invoked {event.op.seq} with"
                f" {in_flight[client]} still in flight"
            )
            in_flight[client] = event.op.seq
        else:
            assert event.op.seq in invoked, "response before invocation"
            assert in_flight.get(client) == event.op.seq, (
                "response does not match the client's in-flight operation"
            )
            in_flight[client] = None
