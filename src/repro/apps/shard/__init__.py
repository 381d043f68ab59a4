"""``repro.apps.shard`` — the sharded KV service and its load generator.

The composition the ROADMAP's "millions of users" story asks for: keys
hash to shards, each shard is an independent emulated register fleet
(any Table 1 substrate), shards serve either in-process or over real
sockets, and an open-loop generator drives Zipfian traffic from
thousands of concurrent sessions while per-key consistency is audited
with the paper's checkers.  :class:`ShardCluster` is a service with the
replicas behind it: the cluster ``repro loadgen`` runs.
"""

from repro.apps.shard.cluster import ShardCluster
from repro.apps.shard.config import ShardConfig, ShardServiceConfig
from repro.apps.shard.loadgen import Scenario, run_loadgen
from repro.apps.shard.router import ShardRouter, stable_key_hash
from repro.apps.shard.service import (
    TOMBSTONE,
    ServiceSession,
    ShardedKVService,
)

__all__ = [
    "ShardCluster",
    "ShardConfig",
    "ShardServiceConfig",
    "Scenario",
    "run_loadgen",
    "ShardRouter",
    "stable_key_hash",
    "TOMBSTONE",
    "ServiceSession",
    "ShardedKVService",
]
