"""The lower-bound adversary: Definitions 2 and 3 of the paper.

``BlockedWrites_i(t)`` is the set of covering (pending) low-level writes
``w`` such that either

1. ``w`` was triggered by a client in ``C(t_{i-1})`` (a writer that
   already completed a high-level write before the phase began), or
2. ``w`` was triggered on a base register in
   ``delta^-1(Q_i(t) u G_i(t))``.

The environment *behaves like* ``Ad_i`` when, after ``t_{i-1}``, no
blocked write responds, there are no failures, and every non-blocked
pending operation eventually responds (handled by running a fair
scheduler over the non-vetoed actions).

:class:`AdversaryAdi` implements this as a kernel
:class:`~repro.sim.kernel.Environment`: it vetoes exactly the respond
actions of blocked writes, consulting a
:class:`~repro.core.covering.CoveringTracker` for ``C(t_{i-1})``,
``Q_i(t)`` and ``G_i(t)``.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.covering import CoveringTracker
from repro.sim.ids import ServerId
from repro.sim.kernel import Action, ActionKind, Environment, Kernel
from repro.sim.objects import LowLevelOp


class AdversaryAdi(Environment):
    """Environment behaving like ``Ad_i`` for the tracker's active phase.

    While the tracker has no active phase the adversary allows everything
    (useful between phases and for assembling initial configurations).
    """

    def __init__(self, tracker: CoveringTracker):
        self.tracker = tracker
        #: vetoing :meth:`allows` consultations (observability/testing);
        #: the kernel consults on every step, so an op held for several
        #: steps counts once per step, as ``ChaosEnvironment.vetoes`` does
        self.vetoes = 0
        # Memoized decision inputs (C(t) and Q_i(t) u G_i(t)), valid for
        # one tracker version: the only cache of the veto path.
        # Recomputing them per consulted op is the dominant cost of the
        # adversary in long constructed runs.
        self._memo_version: "Optional[int]" = None
        self._memo = None

    def _decision_state(self):
        version = getattr(self.tracker, "version", None)
        if self._memo is None or version is None or version != self._memo_version:
            completed = self.tracker.completed()
            if self.tracker.phase is not None:
                controlled: "Set[ServerId]" = (
                    self.tracker.qi() | self.tracker.gi()
                )
            else:
                controlled = set()
            self._memo = (completed, controlled)
            self._memo_version = version
        return self._memo

    def blocked(self, op: LowLevelOp) -> bool:
        """Is ``op`` in ``BlockedWrites_i(t)`` right now?

        Condition 1 is applied with ``C(t)`` (a superset of the paper's
        ``C(t_{i-1})``, since the phase's own writer only joins it when
        its write returns — at which point its covering writes are held by
        condition 2 anyway).  Blocking this superset is a legal
        environment behaviour, leaves every constructed run unchanged, and
        keeps covering writes pinned *between* phases too, so reads may be
        interleaved with the construction without deflating ``Cov``.
        """
        if not op.is_mutator or not op.pending:
            return False
        completed, controlled = self._decision_state()
        # Condition 1: triggered by a client that has completed a
        # high-level write.
        if op.client_id in completed:
            return True
        if self.tracker.phase is None:
            return False
        # Condition 2: triggered on a register hosted by Q_i(t) u G_i(t).
        if self.tracker.object_map.server_of(op.object_id) in controlled:
            return True
        return False

    def allows(self, action: Action, kernel: Kernel) -> bool:
        if action.kind is not ActionKind.RESPOND:
            return True
        op = kernel.pending.get(action.op_id)
        if op is None:
            return True
        if self.blocked(op):
            self.vetoes += 1
            return False
        return True
