"""How often ``Kernel.arrive`` re-sorts its respond actions, per transport.

``Kernel.arrive`` keeps the respond actions in ascending op-id order; an
op that becomes respondable below the largest respondable one makes it
rebuild the whole table with ``sorted()``.  This drives the two
``benchmarks/e2e`` KV shapes that deliver through ``arrive`` in a
32-deep closed loop and counts those arrivals:

* ``sock``  — max-register ABD, n = 4, f = 1, one shard over
  self-hosted ``AsyncioTransport`` sockets (the shape of
  ``kv_sock_read``);
* ``lossy`` — CAS substrate, n = 4, f = 1, three shards over
  ``LossyTransport`` with delay, reorder, duplicates and 20% drops on
  server 1 (the weather of ``kv_lossy_faults``, without its partition).

Output is one JSON line per transport: arrivals, re-sorts, operations.
Every count is exact for a given ``--seed``.

Usage::

    PYTHONPATH=src python scripts/count_arrive_resorts.py [--ops 2000] [--seed 11]
"""

import argparse
import json
import random

from repro.apps.shard.config import ShardConfig, ShardServiceConfig
from repro.apps.shard.service import ShardedKVService
from repro.net import (
    Delay,
    Drop,
    Duplicate,
    FaultPlan,
    LinkFaults,
    LossyTransport,
    Reorder,
)
from repro.net.asyncio_transport import AsyncioTransport

DEPTH = 32
KEYS = 48

WEATHER = dict(
    delay=Delay(0, 4), reorder=Reorder(0.3, window=10), duplicate=Duplicate(0.05)
)
PLAN = FaultPlan(
    default=LinkFaults(**WEATHER),
    per_server=((1, LinkFaults(drop=Drop(0.2), **WEATHER)),),
)


def _service(transport: str, seed: int) -> ShardedKVService:
    if transport == "sock":
        shards = (ShardConfig(n=4, f=1, capacity=KEYS),)
        transports = [AsyncioTransport(idle_timeout=1.0)]
    else:
        shards = tuple(
            ShardConfig(substrate="cas", n=4, f=1, capacity=KEYS)
            for _ in range(3)
        )
        transports = [
            LossyTransport(PLAN, seed=seed * 8 + shard) for shard in range(3)
        ]
    return ShardedKVService(
        ShardServiceConfig(shards=shards, seed=seed), transports=transports
    )


def _count(kernel, counts) -> None:
    """Wrap ``kernel.arrive`` to count arrivals and re-sorts."""
    arrive = kernel.arrive

    def counting_arrive(op_id):
        actions = kernel._respond_actions
        counts["arrivals"] += 1
        if (
            op_id in kernel.pending
            and op_id not in actions
            and actions
            and op_id < next(reversed(actions))
        ):
            counts["resorts"] += 1
        arrive(op_id)

    kernel.arrive = counting_arrive


def measure(transport: str, ops: int, seed: int) -> dict:
    service = _service(transport, seed)
    counts = {"transport": transport, "arrivals": 0, "resorts": 0, "ops": ops}
    rng = random.Random(seed)
    keys = [f"key-{index}" for index in range(KEYS)]
    sessions = [service.session(writer=index) for index in range(8)]
    try:
        for key in keys:
            sessions[0].put(key, f"{key}=0")
        for fleet in service.fleets:
            _count(fleet.kernel, counts)
        submitted = completed = 0
        while completed < ops:
            while submitted < ops and submitted - completed < DEPTH:
                session = sessions[submitted % len(sessions)]
                key = rng.choice(keys)
                if rng.random() < 0.5:
                    session.submit_put(key, f"{key}={submitted}", token=submitted)
                else:
                    session.submit_get(key, token=submitted)
                submitted += 1
            service.step(max_steps_per_shard=2_000)
            completed += len(service.drain_completions())
        assert all(service.audit().values()), f"{transport}: audit failed"
    finally:
        service.close()
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    for transport in ("sock", "lossy"):
        print(json.dumps(measure(transport, args.ops, args.seed)))


if __name__ == "__main__":
    main()
