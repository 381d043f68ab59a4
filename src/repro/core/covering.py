"""Covering bookkeeping: Definition 1 of the paper, executable.

Tracks, from kernel events:

* ``Cov(t)`` — registers covered by a pending low-level write (a
  *covering write*),
* ``C(t)`` — clients that have completed a high-level write,

and, per adversary phase ``i`` (started at time ``t_{i-1}``):

* ``Tr_i(t)`` — registers with a write triggered during the phase,
* ``Rr_i(t)`` — registers with a phase write that already responded,
* ``Cov_i(t) = Cov(t) \\ Cov(t_{i-1})`` — newly covered registers,
* ``Q_i(t)`` — ``delta(Cov_i(t)) \\ F`` while its size is <= f, frozen
  otherwise (Definition 1.4),
* ``F_i(t)`` — servers of ``F`` with a responded phase write
  (Definition 1.5),
* ``M_i(t)`` — servers of ``F`` covered by a phase write but without any
  responded phase write (Definition 1.6),
* ``G_i(t)`` — ``M_i(t)`` when ``|Q_i(t)| < |F_i(t)|``, else empty
  (Definition 1.7).

State is updated at the end of every kernel step, so between steps the
tracker reflects the paper's time-``t`` configuration — exactly when the
adversary consults it.  :meth:`CoveringTracker.check_lemma2` asserts the
invariants of Lemma 2 (those meaningful under the adversary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set

from repro.errors import InvalidConfig, ModelViolation
from repro.sim.events import (
    EventListener,
    RespondEvent,
    ReturnEvent,
    TriggerEvent,
)
from repro.sim.ids import ClientId, ObjectId, ServerId
from repro.sim.server import ObjectMap


@dataclass
class PhaseState:
    """Per-phase (Definition 1) bookkeeping."""

    index: int
    start_time: int
    F: "FrozenSet[ServerId]"
    cov_prev: "FrozenSet[ObjectId]"
    completed_prev: "FrozenSet[ClientId]"
    tri: "Set[ObjectId]" = field(default_factory=set)
    rri: "Set[ObjectId]" = field(default_factory=set)
    qi: "Set[ServerId]" = field(default_factory=set)
    #: registers with a write triggered during this phase that is pending
    _phase_pending: "Dict[ObjectId, Set[int]]" = field(default_factory=dict)


class CoveringTracker(EventListener):
    """Maintains Cov(t), C(t) and the Definition 1 phase sets."""

    def __init__(self, object_map: ObjectMap, f: int):
        self.object_map = object_map
        self.f = f
        #: pending covering writes per register: ObjectId -> set of op ids
        self._pending_writes: "Dict[ObjectId, Set[int]]" = {}
        #: op id -> op record, for all pending mutators
        self.pending_ops: "Dict[int, object]" = {}
        self.completed_writers: "Set[ClientId]" = set()
        self.phase: "Optional[PhaseState]" = None
        self.write_name = "write"
        self._lemma2_prev: "Optional[dict]" = None
        #: monotone state-version counter, bumped on every change that can
        #: affect the Definition 1 sets; consumers (the adversary's
        #: decision memo) use it to memoize derived state between changes.
        self.version = 0

    # -- global quantities -------------------------------------------------

    def cov(self) -> "Set[ObjectId]":
        """``Cov(t)``: registers with at least one pending write."""
        return {oid for oid, ops in self._pending_writes.items() if ops}

    def completed(self) -> "Set[ClientId]":
        """``C(t)``: clients that completed a high-level write."""
        return set(self.completed_writers)

    # -- phases ------------------------------------------------------------

    def start_phase(
        self, index: int, F: "Set[ServerId]", time: int
    ) -> PhaseState:
        """Begin phase ``i`` at time ``t_{i-1}`` with protected set F."""
        if len(F) != self.f + 1:
            raise InvalidConfig(
                f"|F| must be f+1 = {self.f + 1}, got {len(F)}"
            )
        self.phase = PhaseState(
            index=index,
            start_time=time,
            F=frozenset(F),
            cov_prev=frozenset(self.cov()),
            completed_prev=frozenset(self.completed_writers),
        )
        self._lemma2_prev = None
        self.version += 1
        self._update_qi()
        return self.phase

    def end_phase(self) -> PhaseState:
        if self.phase is None:
            raise ModelViolation("no active phase")
        finished, self.phase = self.phase, None
        self.version += 1
        return finished

    # -- derived phase sets (Definition 1) -----------------------------------

    def covi(self) -> "Set[ObjectId]":
        """``Cov_i(t) = Cov(t) \\ Cov(t_{i-1})``."""
        assert self.phase is not None
        return self.cov() - self.phase.cov_prev

    def qi(self) -> "Set[ServerId]":
        assert self.phase is not None
        return set(self.phase.qi)

    def fi(self) -> "Set[ServerId]":
        """Servers of F with a register that responded to a phase write."""
        assert self.phase is not None
        return {
            self.object_map.server_of(oid)
            for oid in self.phase.rri
            if self.object_map.server_of(oid) in self.phase.F
        }

    def mi(self) -> "Set[ServerId]":
        """Servers of F covered by phase writes, none of which responded."""
        assert self.phase is not None
        covered_servers = self.object_map.image(self.covi())
        return covered_servers & (self.phase.F - self.fi())

    def gi(self) -> "Set[ServerId]":
        assert self.phase is not None
        if len(self.phase.qi) < len(self.fi()):
            return self.mi()
        return set()

    def _update_qi(self) -> None:
        """Definition 1.4: follow ``delta(Cov_i) \\ F`` while small, else
        freeze."""
        if self.phase is None:
            return
        outside = self.object_map.image(self.covi()) - self.phase.F
        if len(outside) <= self.f:
            self.phase.qi = outside
        # else: Q_i(t) = Q_i(t-1): keep the stored value.

    # -- listener hooks ----------------------------------------------------------

    def on_trigger(self, event: TriggerEvent) -> None:
        op = event.op
        if not op.is_mutator:
            return
        self.version += 1
        self.pending_ops[op.op_id.value] = op
        self._pending_writes.setdefault(op.object_id, set()).add(
            op.op_id.value
        )
        if self.phase is not None:
            self.phase.tri.add(op.object_id)
            self.phase._phase_pending.setdefault(op.object_id, set()).add(
                op.op_id.value
            )
        self._update_qi()

    def on_respond(self, event: RespondEvent) -> None:
        op = event.op
        if not op.is_mutator:
            return
        self.version += 1
        self.pending_ops.pop(op.op_id.value, None)
        pending = self._pending_writes.get(op.object_id)
        if pending is not None:
            pending.discard(op.op_id.value)
        if self.phase is not None:
            phase_pending = self.phase._phase_pending.get(op.object_id)
            if phase_pending is not None and op.op_id.value in phase_pending:
                phase_pending.discard(op.op_id.value)
                self.phase.rri.add(op.object_id)
        self._update_qi()

    def on_return(self, event: ReturnEvent) -> None:
        if event.name == self.write_name:
            self.completed_writers.add(event.client_id)
            self.version += 1

    # -- Lemma 2 invariants --------------------------------------------------------

    def check_lemma2(self) -> None:
        """Assert the Lemma 2 claims that hold under the adversary.

        Call between steps of a run in which the environment behaves like
        ``Ad_i`` (they need not hold in unconstrained runs).
        """
        assert self.phase is not None, "no active phase"
        f = self.f
        F = self.phase.F
        qi, fi, mi = self.qi(), self.fi(), self.mi()
        covi_servers = self.object_map.image(self.covi())
        rri_servers = self.object_map.image(self.phase.rri)

        # (1) Q_i <= delta(Cov_i) \ F
        assert qi <= covi_servers - F, "Lemma 2.1 violated"
        # (4) |F_i| - |Q_i| <= 1
        assert len(fi) - len(qi) <= 1, "Lemma 2.4 violated"
        # (5) |Q_i| <= f
        assert len(qi) <= f, "Lemma 2.5 violated"
        # (6) |F_i| <= f + 1
        assert len(fi) <= f + 1, "Lemma 2.6 violated"
        # (8) |M_i| <= f + 1
        assert len(mi) <= f + 1, "Lemma 2.8 violated"
        # (9) |delta(Cov_i) \ F| >= f  =>  |Q_i| >= f
        if len(covi_servers - F) >= f:
            assert len(qi) >= f, "Lemma 2.9 violated"
        # (10) |delta(Cov_i) \ F| < f  =>  delta(Rr_i) \ F = empty
        if len(covi_servers - F) < f:
            assert not (rri_servers - F), "Lemma 2.10 violated"
        # (11) (Q_i u M_i) disjoint from delta(Rr_i)
        assert not ((qi | mi) & rri_servers), "Lemma 2.11 violated"
        # (2), (3), (7): monotonicity vs. the previous check.
        if self._lemma2_prev is not None:
            prev = self._lemma2_prev
            assert prev["qi"] <= qi, "Lemma 2.2 violated"
            assert prev["fi"] <= fi, "Lemma 2.3 violated"
            if prev["fi"] == fi:
                assert prev["mi"] <= mi, "Lemma 2.7 violated"
        self._lemma2_prev = {"qi": qi, "fi": fi, "mi": mi}
