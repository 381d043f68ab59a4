"""Chaos testing: a randomized-but-fair environment.

The lower-bound adversary (:class:`~repro.core.adversary.AdversaryAdi`)
vetoes responds with surgical intent; :class:`ChaosEnvironment` vetoes
them *randomly*, modelling arbitrary bounded asynchrony: every pending
operation may be delayed, but never beyond ``max_delay`` steps (so every
fair-scheduler run remains fair and liveness is preserved).

Together with :class:`~repro.sim.scheduling.RandomScheduler` this gives
runs that are much wilder than random scheduling alone — responds go
through veto windows that reorder them across long stretches — which is
exactly the weather safety properties must survive.

The *message-level* expression of the same concern lives in
:func:`repro.net.faults.chaos_faults`: a
:class:`~repro.net.lossy.LossyTransport` that delays, reorders, drops
and duplicates messages in flight, instead of vetoing responds.  Vetoes
stay in-model (the lower-bound adversary's power); message faults are
out-of-model stressors under which only safety is asserted.
"""

from __future__ import annotations

import random

from repro.errors import InvalidConfig
from repro.sim.kernel import Action, ActionKind, Environment, Kernel


class ChaosEnvironment(Environment):
    """Randomly delay responds, with a hard fairness bound.

    ``veto_probability`` is the chance a respond is vetoed on any given
    consultation; an operation pending longer than ``max_delay`` steps is
    never vetoed again.  Deterministic per seed: the veto decision for an
    operation is re-randomized each consultation from a stream seeded by
    (seed, op id, time), so runs replay exactly.
    """

    def __init__(
        self,
        seed: int = 0,
        veto_probability: float = 0.5,
        max_delay: int = 200,
    ):
        if not 0.0 <= veto_probability < 1.0:
            raise InvalidConfig("veto_probability must be in [0, 1)")
        if max_delay < 0:
            raise InvalidConfig("max_delay must be non-negative")
        self.seed = seed
        self.veto_probability = veto_probability
        self.max_delay = max_delay
        self.vetoes = 0
        self.stalls = 0
        self._forced: "set[int]" = set()

    def allows(self, action: Action, kernel: Kernel) -> bool:
        if action.kind is not ActionKind.RESPOND:
            return True
        op = kernel.pending.get(action.op_id)
        if op is None:
            return True
        if op.op_id.value in self._forced:
            return True  # released on a stall: stays released
        pending_for = kernel.time - op.trigger_time
        if pending_for >= self.max_delay:
            return True  # fairness: delays are bounded
        # hash() of an int tuple is deterministic across processes (only
        # str hashing is salted), so runs replay exactly per seed.
        decision = random.Random(
            hash((self.seed, action.op_id.value, kernel.time))
        ).random()
        if decision < self.veto_probability:
            self.vetoes += 1
            return False
        return True

    def on_stall(self, kernel: Kernel) -> bool:
        """All enabled responds momentarily vetoed: release the oldest
        pending operation that could respond so the run keeps moving
        (liveness).

        Only an op on a live object whose request has reached its server
        and that is not already released qualifies; over a lossy
        transport the oldest pending op may still be in flight, or
        dropped.  With none left, return False so the kernel hands the
        stall to the transport (``flush_idle``) instead of re-filtering
        the same vetoed set.
        """
        arrived = kernel.transport.request_arrived
        forced = self._forced
        respondable = [
            op
            for op in kernel.pending.values()
            if op.op_id.value not in forced
            and not kernel.object_map.object(op.object_id).crashed
            and arrived(op)
        ]
        if not respondable:
            return False
        self.stalls += 1
        oldest = min(respondable, key=lambda op: op.trigger_time)
        forced.add(oldest.op_id.value)
        return True
