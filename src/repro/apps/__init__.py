"""Application-level services built on the register emulations.

The paper motivates its question with cloud storage services built from
weak per-server primitives; this subpackage shows the emulations carrying
such services end to end:

* :mod:`repro.apps.shard` — the KV service and the only KV API
  (``ShardedKVService``; one shard is the single-fleet store): keys hash
  to register fleets on a pluggable substrate (registers /
  max-registers / CAS) with per-key consistency auditing, served
  in-process or over sockets, driven by an open-loop Zipfian load
  generator.
"""

from repro.apps.shard import (
    ShardConfig,
    ShardedKVService,
    ShardFleet,
    ShardRouter,
    ShardServiceConfig,
    run_loadgen,
)

__all__ = [
    "ShardConfig",
    "ShardFleet",
    "ShardRouter",
    "ShardServiceConfig",
    "ShardedKVService",
    "run_loadgen",
]
