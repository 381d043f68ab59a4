"""Frozen, picklable configuration for the sharded KV service.

Mirrors :class:`~repro.net.config.TransportConfig`: eager validation in
``__post_init__``, classmethod constructors, and a ``cache_payload()``
canonical form so shard configs can key the experiment engine's
:func:`~repro.exec.cell_key` and travel through pickled specs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Tuple

from repro.errors import InvalidConfig

#: substrates a shard can run on; maps 1:1 to Table 1 rows (register =
#: Algorithm 2's kf + ceil(k/z)(f+1) economics with a k-writer bound;
#: max-register / cas = 2f+1 per slot, any number of writer identities).
SHARD_SUBSTRATES = ("register", "max-register", "cas")


@dataclass(frozen=True)
class ShardConfig:
    """One shard: an independent emulated register fleet.

    ``capacity`` register slots are provisioned up front — remote
    replica processes are built from a static placement snapshot, so the
    slot set cannot grow after deployment; keys are assigned to slots
    lazily and a full shard raises
    :class:`~repro.errors.ShardCapacityExceeded`.

    ``k_writers`` is the number of writer clients provisioned per slot,
    on every substrate.  On ``register`` it is Table 1's ``k`` (it sizes
    the slot's layout, and a writer identity ``>= k`` raises
    :class:`~repro.errors.WriterBoundExceeded`); on ``max-register`` /
    ``cas`` space does not depend on it and writer identities are
    multiplexed onto the ``k_writers`` clients.
    """

    substrate: str = "max-register"
    n: int = 3
    f: int = 1
    k_writers: int = 4
    capacity: int = 8

    def __post_init__(self) -> None:
        if self.substrate not in SHARD_SUBSTRATES:
            raise InvalidConfig(
                f"substrate must be one of {SHARD_SUBSTRATES},"
                f" got {self.substrate!r}"
            )
        if self.n < 2 * self.f + 1:
            raise InvalidConfig(
                f"n must be at least 2f+1 = {2 * self.f + 1}, got {self.n}"
            )
        if self.k_writers <= 0:
            raise InvalidConfig("k_writers must be positive")
        if self.capacity <= 0:
            raise InvalidConfig("capacity must be positive")

    def cache_payload(self) -> "Dict[str, Any]":
        return asdict(self)


@dataclass(frozen=True)
class ShardServiceConfig:
    """The whole service: a tuple of shards and one seed.

    Shards may be heterogeneous (different substrates or quorum
    layouts); :meth:`make` builds the common uniform case.  ``seed``
    derives every shard's scheduler seed.
    """

    shards: "Tuple[ShardConfig, ...]"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.shards:
            raise InvalidConfig("need at least one shard")
        if not all(isinstance(s, ShardConfig) for s in self.shards):
            raise InvalidConfig("shards must be ShardConfig instances")

    @classmethod
    def make(
        cls,
        shards: int = 3,
        seed: int = 0,
        **shard_params,
    ) -> "ShardServiceConfig":
        """A uniform service: ``shards`` identical :class:`ShardConfig`."""
        if shards <= 0:
            raise InvalidConfig("need at least one shard")
        shard = ShardConfig(**shard_params)
        return cls(shards=(shard,) * shards, seed=seed)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def cache_payload(self) -> "Dict[str, Any]":
        return {
            "shards": [shard.cache_payload() for shard in self.shards],
            "seed": self.seed,
        }
