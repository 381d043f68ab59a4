"""Scheduler policies.

A scheduler picks the next step among the allowed ones.  Each step of
:meth:`Kernel.run <repro.sim.kernel.Kernel.run>` offers the enabled
client runtimes (by client id) and the allowed ready low-level ops (by
op id), and takes the one at the index :meth:`Scheduler.pick` returns
into the two laid end to end.  A policy that keys on steps names them by
their replay descriptor (:func:`describe`): ``("client", index)`` or
``("respond", op)``.

The paper's liveness definitions are stated over *fair* runs; we
provide:

* :class:`RandomScheduler` — seeded uniform choice; probabilistically fair
  and the workhorse for randomized testing.
* :class:`RoundRobinScheduler` — strongly fair: always picks the enabled
  step that has waited longest (never starves anything).
* :class:`ClientPriorityScheduler` — prefers client steps over responds
  (drives computation forward before delivering responses); fair within
  each class.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

#: A step named by value: ``("client", client index)`` or
#: ``("respond", op id value)``.  Plain tuples, so recorded schedules
#: serialize with ``json`` or ``repr``.
StepDescriptor = Tuple[str, int]


def describe(clients: Sequence, responds: Sequence, index: int) -> StepDescriptor:
    """The descriptor of the step at ``index`` into ``clients`` and
    ``responds`` laid end to end."""
    count = len(clients)
    if index < count:
        return ("client", clients[index].client_id.index)
    return ("respond", responds[index - count].op_id.value)


class Scheduler:
    """Interface: pick one step among the allowed ones.

    :meth:`pick` is the one method a policy overrides.
    """

    def pick(self, clients: Sequence, responds: Sequence, kernel) -> int:
        """The index of the step to take, into the enabled runtimes
        ``clients`` followed by the allowed ready ops ``responds``; the
        kernel refuses an index outside them.  Both lists may be the
        kernel's live tables: read them during the call only."""
        raise NotImplementedError


class RandomScheduler(Scheduler):
    """Seeded uniform random choice among allowed steps.

    :meth:`pick` draws the index the way ``Random._randbelow`` does,
    inline: ``n.bit_length()`` bits from ``getrandbits``, redrawn until
    below ``n`` (``Random._randbelow_with_getrandbits`` on every
    supported Python).  For a positive bound that is exactly what
    ``randrange`` reduces to, so the seeded stream is consumed
    identically and recorded schedules and golden fingerprints are
    unchanged, without ``_randbelow``'s frame on every step.  The draw
    needs only the count.  The generator is looked up on each call
    rather than cached as a bound builtin method, which
    ``copy.deepcopy`` would share between a forked kernel and its
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


class RoundRobinScheduler(Scheduler):
    """Strongly fair: pick the allowed step enabled-and-unserved longest.

    Implemented as two insertion-ordered queues of step descriptors
    rather than a ``min()``-scan over ever-growing bookkeeping dicts:
    ``_fresh`` holds never-picked steps in first-seen order, ``_served``
    holds picked steps in last-picked order (a pick moves to the back).
    The head-most allowed step of ``_fresh`` (else of ``_served``) wins —
    exactly the old "least recently executed, fresh first, ties by
    first-seen" policy, but each pick is amortized O(1) instead of
    O(known steps).

    Queue entries for low-level operations that already responded can
    never recur (op ids are unique), so they are pruned lazily as scans
    pass them and wholesale every ``_SWEEP_INTERVAL`` picks — the old
    implementation kept them forever and leaked memory over long runs.
    Under this policy every continuously allowed step is eventually
    taken, which realizes the paper's fair runs whenever the environment
    stops vetoing.
    """

    _SWEEP_INTERVAL = 1024

    def __init__(self) -> None:
        # Python dicts preserve insertion order; values are unused.
        self._fresh: "Dict[StepDescriptor, None]" = {}
        self._served: "Dict[StepDescriptor, None]" = {}
        self._picks = 0

    def pick(self, clients: Sequence, responds: Sequence, kernel) -> int:
        offered = [("client", runtime.client_id.index) for runtime in clients]
        offered += [("respond", op.op_id.value) for op in responds]
        fresh, served = self._fresh, self._served
        for step in offered:
            if step not in fresh and step not in served:
                fresh[step] = None
        self._picks += 1
        if kernel is not None and self._picks % self._SWEEP_INTERVAL == 0:
            self._sweep(kernel)
        allowed = {step: index for index, step in enumerate(offered)}
        step = self._scan(fresh, allowed, kernel)
        if step is not None:
            del fresh[step]
        else:
            step = self._scan(served, allowed, kernel)
            del served[step]
        served[step] = None  # (re-)append at the back: last-picked order
        return allowed[step]

    @staticmethod
    def _scan(queue, allowed, kernel):
        """First allowed step in queue order, dropping stale responds."""
        pending = kernel.pending if kernel is not None else None
        pick = None
        stale: "List[StepDescriptor]" = []
        for step in queue:
            if step in allowed:
                pick = step
                break
            if pending is not None and _responded(step, pending):
                stale.append(step)
        for step in stale:
            del queue[step]
        return pick

    def _sweep(self, kernel) -> None:
        """Drop every queued respond whose operation is no longer pending."""
        pending = kernel.pending
        for queue in (self._fresh, self._served):
            for step in [step for step in queue if _responded(step, pending)]:
                del queue[step]


def _responded(step: StepDescriptor, pending) -> bool:
    """A respond step whose op is no longer pending (it can never recur).
    Op ids are ``int`` subclasses, so the plain value keys ``pending``."""
    return step[0] == "respond" and step[1] not in pending


class ClientPriorityScheduler(Scheduler):
    """Prefer client steps; deliver responds only when no client can move.

    Useful for driving emulations quickly to their wait points.  Fairness
    within each class is inherited from the round-robin sub-policy.
    """

    def __init__(self) -> None:
        self._inner = RoundRobinScheduler()

    def pick(self, clients: Sequence, responds: Sequence, kernel) -> int:
        if clients:
            return self._inner.pick(clients, (), kernel)
        return self._inner.pick(clients, responds, kernel)
