"""A replicated key-value store: the one-shard front of the KV service.

Each key is one emulated f-tolerant register on one fleet of ``n``
servers; the substrate — which base object type the servers expose — is
pluggable, so the store directly inherits Table 1's space economics:

* ``"max-register"`` / ``"cas"``: 2f+1 base objects per key, any number
  of writer identities;
* ``"register"``: kf + ceil(k/z)(f+1) base objects per key, ``k_writers``
  fixed writers.

Clients talk to the store through *sessions*::

    store = ReplicatedKVStore(KVConfig.make("max-register", n=5, f=2))
    with store.session(writer=0) as s:
        s.put("alpha", 1)
        assert s.get("alpha") == 1
        s.delete("alpha")

There is no protocol logic here: the store is a
:class:`~repro.apps.shard.service.ShardedKVService` with a single shard
(``ShardConfig(substrate, n, f, k_writers, capacity=max_keys)``), so
sessions, routing, the deletion tombstone, crashes and the per-key
consistency audit are the service's, and ``store.fleet`` is that shard's
:class:`~repro.apps.shard.fleet.ShardFleet` — one kernel, one schedule,
one crash event per server.  The fleet is provisioned up front for
``max_keys`` keys.  Writes go through a session only; the store's own
``get`` / ``keys`` / ``snapshot`` are writer-free reads.

Failures are typed (:mod:`repro.errors`): an out-of-range writer raises
:class:`~repro.errors.WriterBoundExceeded`, a stalled quorum raises
:class:`~repro.errors.QuorumUnavailable`, and key ``max_keys + 1``
raises :class:`~repro.errors.ShardCapacityExceeded`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from repro.apps.shard.config import ShardConfig, ShardServiceConfig
from repro.apps.shard.fleet import ShardFleet
from repro.apps.shard.service import ServiceSession, ShardedKVService
from repro.errors import InvalidConfig, WriterBoundExceeded

#: The store's sessions are the service's; the name stays exported.
KVSession = ServiceSession


@dataclass(frozen=True)
class KVConfig:
    """Deployment parameters of the store.

    Validated eagerly at construction (``__post_init__``), frozen and
    picklable, so a config can travel inside experiment specs and key
    the result cache (:meth:`cache_payload`) exactly like
    :class:`~repro.net.config.TransportConfig` does.

    ``k_writers`` is the number of writer clients per key (see
    :class:`~repro.apps.shard.config.ShardConfig`); the store accepts
    writer identities ``0 .. k_writers-1`` on every substrate.
    ``max_keys`` is the provisioned capacity: base objects for that many
    keys exist from construction, and one key more is refused.
    """

    substrate: str = "max-register"
    n: int = 5
    f: int = 2
    k_writers: int = 4
    seed: int = 0
    max_keys: int = 16

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def make(cls, substrate: str = "max-register", **params) -> "KVConfig":
        """Build a config, mirroring ``EmulationSpec.make``'s shape."""
        return cls(substrate=substrate, **params)

    def shard_config(self) -> ShardConfig:
        """The single shard this store deploys (``max_keys`` slots)."""
        return ShardConfig(
            substrate=self.substrate,
            n=self.n,
            f=self.f,
            k_writers=self.k_writers,
            capacity=self.max_keys,
        )

    def validate(self) -> None:
        """Raise ``InvalidConfig`` unless the shard can be built."""
        self.shard_config()

    def cache_payload(self) -> "Dict[str, Any]":
        """A canonical JSON-able form for result-cache cell keys."""
        return asdict(self)


class ReplicatedKVStore:
    """One emulated register per key, all on the chosen substrate and
    one fleet."""

    def __init__(self, config: "Optional[KVConfig]" = None, **overrides):
        if overrides and config is not None:
            raise InvalidConfig("pass either a KVConfig or keyword overrides")
        self.config = config or KVConfig(**overrides)
        self._service = ShardedKVService(
            ShardServiceConfig(
                shards=(self.config.shard_config(),), seed=self.config.seed
            )
        )
        self._reader = self._service.session(writer=None)

    @property
    def fleet(self) -> ShardFleet:
        """The one fleet every key lives on."""
        return self._service.fleets[0]

    # -- sessions --------------------------------------------------------------

    def session(self, writer: "Optional[int]" = 0) -> KVSession:
        """Open a client session bound to writer ``writer``.

        ``writer=None`` opens a read-only session.  Sessions are cheap;
        open as many concurrently as there are clients.
        """
        if writer is not None and not 0 <= writer < self.config.k_writers:
            raise WriterBoundExceeded(
                f"writer index {writer} out of range"
                f" [0, {self.config.k_writers})"
            )
        return self._service.session(writer)

    # -- writer-free reads ------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Read ``key`` (writer-free; equivalent to a read-only session)."""
        return self._reader.get(key, default)

    def keys(self) -> "List[str]":
        return self._service.keys()

    def snapshot(self) -> "Dict[str, Any]":
        """Read every key once; a per-key-consistent view of the store.

        Not an atomic multi-key snapshot (keys are independent emulated
        registers); each entry individually satisfies the substrate's
        consistency condition.  Deleted keys are omitted.
        """
        return self._reader.scan()

    # -- failure injection ---------------------------------------------------------

    def crash_server(self, server_index: int) -> None:
        """Crash server ``server_index``: one crash event hitting every
        key."""
        self._service.crash_server(server_index)

    # -- accounting and auditing ------------------------------------------------------

    @property
    def base_objects(self) -> int:
        """Base objects behind the keys in use (Table 1, aggregated);
        ``fleet.total_objects`` is what the ``max_keys`` provision costs."""
        return len(self.keys()) * self.fleet.objects_per_slot

    def base_objects_per_key(self) -> "Dict[str, int]":
        return dict.fromkeys(self.keys(), self.fleet.objects_per_slot)

    def audit(self) -> "Dict[str, bool]":
        """Check every key's history against its consistency condition
        (atomicity on max-register / cas, WS-Regularity on register)."""
        return self._service.audit()
