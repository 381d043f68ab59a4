"""Key routing: stable hash of key → shard.

The hash is CRC-32 of the UTF-8 key — *stable* across processes and
Python releases, unlike the builtin ``hash`` (salted per process by
``PYTHONHASHSEED``): a load generator in one process and replica
servers in others must agree on the placement of every key.  The
placement is fixed for the service's lifetime: shards are provisioned
up front and never re-split, so the map carries no version.
"""

from __future__ import annotations

import zlib
from typing import List

from repro.errors import InvalidConfig


def stable_key_hash(key: str) -> int:
    """Process-independent 32-bit hash of a key."""
    return zlib.crc32(key.encode("utf-8"))


class ShardRouter:
    """Fixed key → shard map over ``n_shards`` shards."""

    def __init__(self, n_shards: int):
        if n_shards <= 0:
            raise InvalidConfig("need at least one shard")
        self.n_shards = n_shards

    def shard_of(self, key: str) -> int:
        return stable_key_hash(key) % self.n_shards

    def partition_keys(self, keys: "List[str]") -> "List[List[str]]":
        """Group ``keys`` by shard (diagnostics / balance reporting)."""
        groups: "List[List[str]]" = [[] for _ in range(self.n_shards)]
        for key in keys:
            groups[self.shard_of(key)].append(key)
        return groups
