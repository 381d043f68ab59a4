"""Meters for the paper's complexity measures.

* **Resource consumption** (Section 2): the number of base objects *used*
  in a run.  :class:`ResourceMeter` counts objects that received at least
  one trigger, plus covering statistics.
* **Point contention** (Appendix C, Theorem 8): the maximum number of
  clients with an incomplete high-level invocation at any single point.
  :class:`PointContentionMeter` tracks it online.
* **Step counts** per high-level operation (the time-complexity metric of
  Section 5's discussion): :class:`StepMeter`.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.sim.events import (
    EventListener,
    InvokeEvent,
    RespondEvent,
    ReturnEvent,
    TriggerEvent,
)
from repro.sim.ids import ObjectId


class ResourceMeter(EventListener):
    """Counts base objects used and covered in a run."""

    def __init__(self) -> None:
        self.used: "Set[ObjectId]" = set()
        self._pending_mutators: "Dict[ObjectId, int]" = {}
        self.max_covered = 0

    def on_trigger(self, event: TriggerEvent) -> None:
        self.used.add(event.op.object_id)
        if event.op.is_mutator:
            count = self._pending_mutators.get(event.op.object_id, 0)
            self._pending_mutators[event.op.object_id] = count + 1
            self.max_covered = max(self.max_covered, self.covered_now)

    def on_respond(self, event: RespondEvent) -> None:
        # A respond for an untracked object belongs to an op triggered
        # before this meter attached (e.g. in-flight beyond the quorum a
        # previous workload waited for) — not part of this run's measure.
        if event.op.is_mutator and self._pending_mutators.get(
            event.op.object_id, 0
        ) > 0:
            self._pending_mutators[event.op.object_id] -= 1

    @property
    def resource_consumption(self) -> int:
        """Objects used so far (the paper's resource consumption)."""
        return len(self.used)

    @property
    def covered_now(self) -> int:
        """Registers currently covered by a pending write."""
        return sum(1 for c in self._pending_mutators.values() if c > 0)


class PointContentionMeter(EventListener):
    """Tracks point contention of the run and of each operation.

    ``PntCont(r)`` is the maximum number of clients with an incomplete
    high-level invocation after some finite prefix of ``r``.
    """

    def __init__(self) -> None:
        self._active: "Set[int]" = set()
        self.run_point_contention = 0
        #: seq -> point contention during that operation's interval
        self.per_op: "Dict[int, int]" = {}

    def on_invoke(self, event: InvokeEvent) -> None:
        self._active.add(event.seq)
        now = len(self._active)
        self.run_point_contention = max(self.run_point_contention, now)
        for seq in self._active:
            self.per_op[seq] = max(self.per_op.get(seq, 0), now)

    def on_return(self, event: ReturnEvent) -> None:
        self._active.discard(event.seq)


class StepMeter(EventListener):
    """Counts low-level operations per high-level operation.

    The per-op trigger count is the natural time-complexity proxy in the
    asynchronous model (each trigger/respond pair is a round trip to a
    base object).
    """

    def __init__(self) -> None:
        self.triggers_per_op: "Dict[int, int]" = {}
        self.durations: "Dict[int, int]" = {}
        self._invoked_at: "Dict[int, int]" = {}

    def on_invoke(self, event: InvokeEvent) -> None:
        self.triggers_per_op[event.seq] = 0
        self._invoked_at[event.seq] = event.time

    def on_trigger(self, event: TriggerEvent) -> None:
        seq = event.op.highlevel_seq
        if seq is not None and seq in self.triggers_per_op:
            self.triggers_per_op[seq] += 1

    def on_return(self, event: ReturnEvent) -> None:
        invoked = self._invoked_at.get(event.seq)
        if invoked is not None:
            self.durations[event.seq] = event.time - invoked

    def mean_triggers(self) -> float:
        if not self.triggers_per_op:
            return 0.0
        return sum(self.triggers_per_op.values()) / len(self.triggers_per_op)

    def mean_duration(self) -> float:
        if not self.durations:
            return 0.0
        return sum(self.durations.values()) / len(self.durations)
