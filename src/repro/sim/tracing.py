"""Run tracing: event logs and Figure 2-style timelines.

The paper illustrates its run constructions (Figure 2) as client
timelines with operation intervals.  :class:`TraceRecorder` captures every
kernel event; :func:`render_timeline` draws the high-level operations of
each client as labelled intervals over step-time, and
:func:`render_event_log` dumps the low-level action sequence — both are
plain ASCII, usable in tests, examples and debugging sessions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.errors import InvalidConfig
from repro.sim.events import (
    CrashEvent,
    EventListener,
    InvokeEvent,
    RespondEvent,
    ReturnEvent,
    TriggerEvent,
)


@dataclass
class TraceEntry:
    """One recorded event (kind + the original event record)."""

    kind: str  # "invoke" | "return" | "trigger" | "respond" | "crash"
    time: int
    event: Any


#: event kind -> the EventListener hook that produces it.
_HOOK_BY_KIND = {
    "invoke": "on_invoke",
    "return": "on_return",
    "trigger": "on_trigger",
    "respond": "on_respond",
    "crash": "on_crash",
}


class TraceRecorder(EventListener):
    """Chronological record of everything the kernel did.

    ``kinds`` restricts recording to a subset of event kinds (e.g.
    ``{"invoke", "return"}`` for high-level timelines only).  Unwanted
    hooks are masked back to the no-op base before registration, so the
    kernel's pre-bound dispatch skips them entirely — a filtered recorder
    costs nothing on the hooks it ignores.
    """

    def __init__(self, kinds: "Optional[set]" = None) -> None:
        self.entries: "List[TraceEntry]" = []
        if kinds is not None:
            unknown = set(kinds) - set(_HOOK_BY_KIND)
            if unknown:
                raise InvalidConfig(f"unknown event kinds: {sorted(unknown)}")
            for kind, hook in _HOOK_BY_KIND.items():
                if kind not in kinds:
                    # An instance attribute bound to the base no-op: the
                    # kernel's override detection sees the original
                    # EventListener hook and never dispatches to it.
                    setattr(
                        self, hook, getattr(EventListener, hook).__get__(self)
                    )

    def on_invoke(self, event: InvokeEvent) -> None:
        self.entries.append(TraceEntry("invoke", event.time, event))

    def on_return(self, event: ReturnEvent) -> None:
        self.entries.append(TraceEntry("return", event.time, event))

    def on_trigger(self, event: TriggerEvent) -> None:
        self.entries.append(TraceEntry("trigger", event.time, event))

    def on_respond(self, event: RespondEvent) -> None:
        self.entries.append(TraceEntry("respond", event.time, event))

    def on_crash(self, event: CrashEvent) -> None:
        self.entries.append(TraceEntry("crash", event.time, event))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def horizon(self) -> int:
        """The largest recorded time."""
        return max((entry.time for entry in self.entries), default=0)


def format_entry(entry: TraceEntry) -> str:
    """One event as a log line."""
    e = entry.event
    if entry.kind == "invoke":
        return f"{entry.time:>6}  {e.client_id}  invoke {e.name}{e.args}"
    if entry.kind == "return":
        return f"{entry.time:>6}  {e.client_id}  return {e.name} -> {e.result!r}"
    if entry.kind == "trigger":
        op = e.op
        return (
            f"{entry.time:>6}  {op.client_id}  trigger"
            f" {op.kind.value}{op.args} on {op.object_id}"
        )
    if entry.kind == "respond":
        op = e.op
        return (
            f"{entry.time:>6}  {op.client_id}  respond"
            f" {op.kind.value} on {op.object_id} -> {op.result!r}"
        )
    who = e.server_id if e.server_id is not None else e.client_id
    return f"{entry.time:>6}  CRASH  {who}"


def render_event_log(
    recorder: TraceRecorder,
    kinds: "Optional[set]" = None,
    limit: "Optional[int]" = None,
) -> str:
    """The action sequence as text, optionally filtered by event kind."""
    entries = [
        entry
        for entry in recorder.entries
        if kinds is None or entry.kind in kinds
    ]
    if limit is not None:
        entries = entries[:limit]
    return "\n".join(format_entry(entry) for entry in entries)


def render_timeline(recorder: TraceRecorder, width: int = 72) -> str:
    """Figure 2-style client timelines.

    One lane per client; each high-level operation is drawn as
    ``[---]`` scaled to the run length, labelled ``name:result``; a
    pending operation is drawn open-ended (``[--->``).  Crashes appear as
    ``X`` marks on a dedicated lane.
    """
    horizon = max(recorder.horizon, 1)
    scale = (width - 1) / horizon

    def col(time: int) -> int:
        return min(int(time * scale), width - 1)

    # Collect per-client operations from invoke/return pairs.
    ops = {}
    order: "List" = []
    for entry in recorder.entries:
        if entry.kind == "invoke":
            e = entry.event
            ops[e.seq] = {
                "client": e.client_id,
                "name": e.name,
                "start": entry.time,
                "end": None,
                "result": None,
            }
            if e.client_id not in order:
                order.append(e.client_id)
        elif entry.kind == "return":
            e = entry.event
            record = ops.get(e.seq)
            if record is not None:
                record["end"] = entry.time
                record["result"] = e.result

    lines = [f"time 0..{horizon} (1 col ~ {1 / scale:.1f} steps)"]
    for client in order:
        lane = [" "] * width
        labels = []
        for record in ops.values():
            if record["client"] != client:
                continue
            start = col(record["start"])
            end = col(record["end"]) if record["end"] is not None else width - 1
            open_ended = record["end"] is None
            lane[start] = "["
            for position in range(start + 1, end):
                lane[position] = "-"
            lane[end] = ">" if open_ended else "]"
            label = f"{record['name']}@{record['start']}"
            if record["result"] is not None:
                label += f"={record['result']!r}"
            labels.append(label)
        lines.append(f"{str(client):>8} |{''.join(lane)}| {', '.join(labels)}")

    crash_positions = [
        (entry.time, entry.event)
        for entry in recorder.entries
        if entry.kind == "crash"
    ]
    if crash_positions:
        lane = [" "] * width
        labels = []
        for time, event in crash_positions:
            lane[col(time)] = "X"
            who = (
                event.server_id
                if event.server_id is not None
                else event.client_id
            )
            labels.append(f"{who}@{time}")
        lines.append(f"{'crashes':>8} |{''.join(lane)}| {', '.join(labels)}")
    return "\n".join(lines)
