"""Latency-aware scheduling: model slow servers and slow clients.

The paper's asynchrony is adversarial; real deployments are merely
*skewed*.  :class:`WeightedScheduler` samples the next action with
probabilities proportional to configurable weights — a server with weight
0.05 responds ~20x less often than one with weight 1.0, emulating a
straggler without violating fairness (every enabled action retains
positive probability, so fair runs remain fair almost surely).

Useful for stress-testing the emulations' wait-freedom under skew and for
benchmarks that want heterogeneous fleets.

The *message-level* expression of the same concern — slow links instead
of a slow scheduler — lives in :func:`repro.net.faults.straggler_plan`:
a :class:`~repro.net.lossy.LossyTransport` with long per-server delay
distributions delays the straggler's messages in flight rather than its
turns.  Prefer that form when the question is about the network; keep
this scheduler when the question is about scheduling fairness itself.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.errors import InvalidConfig
from repro.sim.ids import ClientId, ServerId
from repro.sim.kernel import Action, ActionKind
from repro.sim.scheduling import Scheduler


class WeightedScheduler(Scheduler):
    """Seeded weighted-random action choice.

    Weights: per-server (applied to responds of ops on that server's
    objects), per-client (applied to that client's steps).  Unspecified
    components default to 1.0.  All weights must be positive — a zero
    weight would starve an action and break fairness.
    """

    def __init__(
        self,
        seed: int = 0,
        server_weights: "Optional[Dict[ServerId, float]]" = None,
        client_weights: "Optional[Dict[ClientId, float]]" = None,
    ):
        self.seed = seed
        self._rng = random.Random(seed)
        self.server_weights = dict(server_weights or {})
        self.client_weights = dict(client_weights or {})
        for weight in list(self.server_weights.values()) + list(
            self.client_weights.values()
        ):
            if weight <= 0:
                raise InvalidConfig("weights must be positive (fairness)")

    def _weight(self, action: Action, kernel) -> float:
        if action.kind is ActionKind.CLIENT:
            return self.client_weights.get(action.client_id, 1.0)
        op = kernel.pending.get(action.op_id)
        if op is None:
            return 1.0
        server = kernel.object_map.server_of(op.object_id)
        return self.server_weights.get(server, 1.0)

    def choose(self, actions, kernel) -> Action:
        weights = [self._weight(action, kernel) for action in actions]
        return self._rng.choices(actions, weights=weights, k=1)[0]


def straggler_fleet(
    n: int, slow_servers: "Dict[int, float]", seed: int = 0
) -> WeightedScheduler:
    """Convenience: a fleet of ``n`` servers with the given stragglers.

    ``slow_servers`` maps server index -> weight (e.g. ``{0: 0.05}``
    makes server 0 a 20x straggler).
    """
    return WeightedScheduler(
        seed=seed,
        server_weights={
            ServerId(index): weight
            for index, weight in slow_servers.items()
            if 0 <= index < n
        },
    )
