"""Scheduler policies.

A scheduler picks the next step among the allowed ones.  The paper's
liveness definitions are stated over *fair* runs; we provide:

* :class:`RandomScheduler` — seeded uniform choice; probabilistically fair
  and the workhorse for randomized testing.
* :class:`RoundRobinScheduler` — strongly fair: always picks the enabled
  action that has waited longest (never starves anything).
* :class:`ClientPriorityScheduler` — prefers client steps over responds
  (drives computation forward before delivering responses); fair within
  each class.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.errors import ModelViolation
from repro.sim.kernel import Action, ActionKind, actions_of


class Scheduler:
    """Interface: pick one step among the allowed ones.

    :meth:`Kernel.run <repro.sim.kernel.Kernel.run>` calls :meth:`pick`
    with the enabled client runtimes (by client id) and the allowed
    ready low-level ops (by op id), and runs the one at the returned
    index into the two laid end to end.  A policy that reads only the
    count overrides :meth:`pick` (:class:`RandomScheduler`); one keyed
    on :class:`~repro.sim.kernel.Action` values overrides :meth:`choose`
    and inherits :meth:`pick`, the one adapter between the two.
    """

    def pick(self, clients: Sequence, responds: Sequence, kernel) -> int:
        """Build the action list, :meth:`choose` from it, return the
        chosen action's index; an action not offered is refused."""
        actions = actions_of(clients, responds)
        action = self.choose(actions, kernel)
        try:
            return actions.index(action)
        except ValueError:
            raise ModelViolation(
                f"scheduler chose {action}, which is not among the"
                f" {len(actions)} allowed actions"
            ) from None

    def choose(self, actions: "List[Action]", kernel) -> Action:
        raise NotImplementedError


class RandomScheduler(Scheduler):
    """Seeded uniform random choice among allowed actions.

    :meth:`pick` draws the index the way ``Random._randbelow`` does,
    inline: ``n.bit_length()`` bits from ``getrandbits``, redrawn until
    below ``n`` (``Random._randbelow_with_getrandbits`` on every
    supported Python).  For a positive bound that is exactly what
    ``randrange`` reduces to, so the seeded stream is consumed
    identically and recorded schedules and golden fingerprints are
    unchanged, without ``_randbelow``'s frame on every step.  The draw
    needs only the count, so the kernel's step builds no action list;
    :meth:`choose` makes the same draw over a list.  The generator is
    looked up on each call rather than cached as a bound builtin method,
    which ``copy.deepcopy`` would share between a forked kernel and its
    origin.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def pick(self, clients: Sequence, responds: Sequence, kernel) -> int:
        n = len(clients) + len(responds)
        k = n.bit_length()
        rng = self._rng
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return r

    def choose(self, actions: "List[Action]", kernel) -> Action:
        return actions[self.pick(actions, (), kernel)]


class RoundRobinScheduler(Scheduler):
    """Strongly fair: pick the allowed action enabled-and-unserved longest.

    Implemented as two insertion-ordered queues rather than a
    ``min()``-scan over ever-growing bookkeeping dicts: ``_fresh`` holds
    never-picked actions in first-seen order, ``_served`` holds picked
    actions in last-picked order (a pick moves to the back).  The head-most
    allowed action of ``_fresh`` (else of ``_served``) wins — exactly the
    old "least recently executed, fresh first, ties by first-seen" policy,
    but each pick is amortized O(1) instead of O(known actions).

    Queue entries for low-level operations that already responded can
    never recur (op ids are unique), so they are pruned lazily as scans
    pass them and wholesale every ``_SWEEP_INTERVAL`` picks — the old
    implementation kept them forever and leaked memory over long runs.
    Under this policy every continuously allowed action is eventually
    executed, which realizes the paper's fair runs whenever the
    environment stops vetoing.
    """

    _SWEEP_INTERVAL = 1024

    def __init__(self) -> None:
        # Python dicts preserve insertion order; values are unused.
        self._fresh: "Dict[Action, None]" = {}
        self._served: "Dict[Action, None]" = {}
        self._picks = 0

    def choose(self, actions: "List[Action]", kernel) -> Action:
        fresh, served = self._fresh, self._served
        for action in actions:
            if action not in fresh and action not in served:
                fresh[action] = None
        self._picks += 1
        if kernel is not None and self._picks % self._SWEEP_INTERVAL == 0:
            self._sweep(kernel)
        allowed = set(actions)
        pick = self._scan(fresh, allowed, kernel)
        if pick is not None:
            del fresh[pick]
        else:
            pick = self._scan(served, allowed, kernel)
            del served[pick]
        served[pick] = None  # (re-)append at the back: last-picked order
        return pick

    @staticmethod
    def _scan(queue, allowed, kernel):
        """First allowed action in queue order, dropping stale responds."""
        pending = kernel.pending if kernel is not None else None
        pick = None
        stale = None
        for action in queue:
            if action in allowed:
                pick = action
                break
            if (
                pending is not None
                and action.kind is ActionKind.RESPOND
                and action.op_id not in pending
            ):
                if stale is None:
                    stale = []
                stale.append(action)
        if stale:
            for action in stale:
                del queue[action]
        return pick

    def _sweep(self, kernel) -> None:
        """Drop every queued respond whose operation is no longer pending."""
        pending = kernel.pending
        for queue in (self._fresh, self._served):
            for action in [
                action
                for action in queue
                if action.kind is ActionKind.RESPOND
                and action.op_id not in pending
            ]:
                del queue[action]


class ClientPriorityScheduler(Scheduler):
    """Prefer client steps; deliver responds only when no client can move.

    Useful for driving emulations quickly to their wait points.  Fairness
    within each class is inherited from the round-robin sub-policy.
    """

    def __init__(self) -> None:
        self._inner = RoundRobinScheduler()

    def choose(self, actions: "List[Action]", kernel) -> Action:
        client_steps = [a for a in actions if a.kind is ActionKind.CLIENT]
        if client_steps:
            return self._inner.choose(client_steps, kernel)
        return self._inner.choose(actions, kernel)
