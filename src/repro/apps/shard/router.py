"""Key routing: stable hash of key → shard, behind a versioned map.

The hash is CRC-32 of the UTF-8 key — *stable* across processes and
Python releases, unlike the builtin ``hash`` (salted per process by
``PYTHONHASHSEED``): a load generator in one process and replica
servers in others must agree on the placement of every key.

The map is versioned like production shard directories: sessions
capture the version they routed with, and a service-side bump (e.g. a
re-shard or re-addressing after recovery) makes stale sessions fail
loudly with :class:`~repro.errors.StaleShardMap` instead of silently
writing through an outdated placement.
"""

from __future__ import annotations

import zlib
from typing import List

from repro.errors import InvalidConfig, StaleShardMap


def stable_key_hash(key: str) -> int:
    """Process-independent 32-bit hash of a key."""
    return zlib.crc32(key.encode("utf-8"))


class ShardRouter:
    """Versioned key → shard map over ``n_shards`` shards."""

    def __init__(self, n_shards: int):
        if n_shards <= 0:
            raise InvalidConfig("need at least one shard")
        self.n_shards = n_shards
        self.version = 1

    def shard_of(self, key: str) -> int:
        return stable_key_hash(key) % self.n_shards

    def bump(self) -> int:
        """Advance the map version (placement unchanged; clients holding
        the old version must refresh before their next operation)."""
        self.version += 1
        return self.version

    def check_version(self, held_version: int) -> None:
        """Raise :class:`StaleShardMap` if ``held_version`` is outdated."""
        if held_version != self.version:
            raise StaleShardMap(
                f"session routed with shard-map v{held_version}, service"
                f" is at v{self.version}; call session.refresh()"
            )

    def partition_keys(self, keys: "List[str]") -> "List[List[str]]":
        """Group ``keys`` by shard (diagnostics / balance reporting)."""
        groups: "List[List[str]]" = [[] for _ in range(self.n_shards)]
        for key in keys:
            groups[self.shard_of(key)].append(key)
        return groups
