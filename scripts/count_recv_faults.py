"""Minor page faults per operation on the socket path.

A socket read into a fresh receive buffer can fault: asyncio's plain
``Protocol`` read asks for 256 KiB per ``recv``, and on glibc that
allocation can make the heap shrink and grow back on every read, one
burst of minor page faults each time.  The transport's protocols read
into one buffer they reuse instead.  This drives the shape of
``benchmarks/e2e``'s ``kv_sock_read`` and counts the faults per
operation:

* max-register ABD, n = 4, f = 1, one shard over self-hosted
  ``AsyncioTransport`` sockets;
* a saturated phase first (4,000 mixed puts and gets, 32 deep, so the
  heap has grown to its working size), then
* ``--ops`` async gets, one in flight at a time, with the process's
  minor faults (``resource.getrusage``) read before and after.

Output is one JSON line: seed, ops, minor faults, faults per op.  Exits
1 above 8 faults per op.  The fault count varies a little from run to
run; the operations are fixed by ``--seed``.

Usage::

    PYTHONPATH=src python scripts/count_recv_faults.py [--ops 1000] [--seed 11]
"""

import argparse
import json
import random
import resource
import sys

from repro.apps.shard.config import ShardConfig, ShardServiceConfig
from repro.apps.shard.service import ShardedKVService
from repro.net.asyncio_transport import AsyncioTransport

DEPTH = 32
KEYS = 48
SATURATED_OPS = 4000
LIMIT = 8.0


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(ops: int, seed: int) -> dict:
    service = ShardedKVService(
        ShardServiceConfig(
            shards=(ShardConfig(n=4, f=1, capacity=KEYS),), seed=seed
        ),
        transports=[AsyncioTransport(idle_timeout=1.0)],
    )
    rng = random.Random(seed)
    keys = [f"key-{index}" for index in range(KEYS)]
    sessions = [service.session(writer=index) for index in range(8)]
    try:
        for key in keys:
            sessions[0].put(key, f"{key}=0")
        submitted = completed = 0
        while completed < SATURATED_OPS:
            while submitted < SATURATED_OPS and submitted - completed < DEPTH:
                session = sessions[submitted % len(sessions)]
                key = rng.choice(keys)
                if rng.random() < 0.1:
                    session.submit_put(key, f"{key}={submitted}", token=submitted)
                else:
                    session.submit_get(key, token=submitted)
                submitted += 1
            service.step(max_steps_per_shard=2_000)
            completed += len(service.drain_completions())
        before = _minor_faults()
        for index in range(ops):
            sessions[index % len(sessions)].submit_get(
                rng.choice(keys), token=index
            )
            while not service.drain_completions():
                service.step(max_steps_per_shard=2_000)
        faults = _minor_faults() - before
        assert all(service.audit().values()), "audit failed"
    finally:
        service.close()
    return {
        "seed": seed,
        "ops": ops,
        "minor_faults": faults,
        "faults_per_op": round(faults / ops, 3),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    print(f"count_recv_faults: seed {args.seed}", flush=True)
    report = measure(args.ops, args.seed)
    print(json.dumps(report))
    if report["faults_per_op"] > LIMIT:
        print(
            f"count_recv_faults: {report['faults_per_op']} minor faults per"
            f" op exceeds {LIMIT}; replay with: PYTHONPATH=src python"
            f" scripts/count_recv_faults.py --ops {args.ops} --seed {args.seed}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
