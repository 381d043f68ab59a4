"""The sharded KV service: S independent fleets behind one session API.

Keys route by stable hash to one of ``S`` shards
(:class:`~repro.apps.shard.router.ShardRouter`); each shard is an
independent :class:`~repro.apps.shard.fleet.ShardFleet` with its own
quorum layout, scheduler stream and (optionally) its own socket
transport.  Clients interact through :class:`ServiceSession` handles:

* synchronous ``put/get/delete/scan`` — each drives the owning shard to
  quiescence (:class:`~repro.apps.kv.ReplicatedKVStore` is this path on
  one shard);
* an asynchronous ``submit``/:meth:`ShardedKVService.drain_completions`
  path — operations are enqueued with opaque tokens and completed by
  stepping the shard kernels, which is how the open-loop load generator
  multiplexes thousands of concurrent sessions over bounded client
  pools without one blocking drive per operation.

Failures are typed: unknown writers raise
:class:`~repro.errors.WriterBoundExceeded` (register substrate's ``k``
bound, per shard), stalled quorums raise
:class:`~repro.errors.QuorumUnavailable`, full shards raise
:class:`~repro.errors.ShardCapacityExceeded`, and operations routed
with an outdated shard map raise :class:`~repro.errors.StaleShardMap`
until the session refreshes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.apps.shard.config import ShardServiceConfig
from repro.apps.shard.fleet import ShardFleet
from repro.apps.shard.router import ShardRouter
from repro.errors import (
    InvalidConfig,
    QuorumUnavailable,
    SessionClosed,
    ShardCapacityExceeded,
    TransportUnavailable,
    WriterBoundExceeded,
)

#: Deletion sentinel (registers cannot shrink, so a delete writes it).
#: A *string* so it crosses the wire format unchanged — shard values
#: cross process boundaries in socket deployments.
TOMBSTONE = "\x00repro:tombstone"

#: Reader clients per slot; sessions share them by ``session_index``.
READER_POOL = 2


class _SyncToken(int):
    """Completion token of one synchronous call: a type no caller's
    opaque async token can be mistaken for."""


class ShardedKVService:
    """S shards, versioned routing, session handles, typed failures."""

    def __init__(
        self,
        config: ShardServiceConfig,
        transports: "Optional[Sequence[Any]]" = None,
    ):
        if transports is not None and len(transports) != config.n_shards:
            raise InvalidConfig(
                f"got {len(transports)} transport(s) for"
                f" {config.n_shards} shards: pass one per shard (None"
                " entries select in-process delivery)"
            )
        self.config = config
        self.router = ShardRouter(config.n_shards)
        self.fleets: "List[ShardFleet]" = [
            ShardFleet(
                shard,
                # independent, deterministic scheduler stream per shard
                seed=config.seed * 7919 + shard_index,
                transport=transports[shard_index] if transports else None,
            )
            for shard_index, shard in enumerate(config.shards)
        ]
        #: per shard: key -> slot index (lazy, first-come placement)
        self._assignments: "List[Dict[str, int]]" = [
            {} for _ in config.shards
        ]
        self._completions: "Deque[Tuple[Any, str, Any, Any]]" = deque()
        self._results: "Dict[Any, Any]" = {}
        self._sync_counter = 0
        self._session_counter = 0
        self._clock: "Optional[Callable[[], float]]" = None

    # -- sessions ------------------------------------------------------------

    def session(self, writer: "Optional[int]" = 0) -> "ServiceSession":
        """Open a session bound to writer identity ``writer``
        (``None``: read-only — its writes raise ``WriterBoundExceeded``).

        Sessions capture the current shard-map version; after a
        :meth:`bump_map` they fail with ``StaleShardMap`` until
        refreshed.  Any number may be open concurrently.
        """
        if writer is not None and writer < 0:
            raise WriterBoundExceeded(
                f"writer identity must be non-negative, got {writer}"
            )
        session_index = self._session_counter
        self._session_counter += 1
        return ServiceSession(self, writer, session_index)

    def set_completion_clock(
        self, clock: "Optional[Callable[[], float]]"
    ) -> None:
        """Stamp async completions with ``clock()`` (loadgen latency)."""
        self._clock = clock

    # -- routing -------------------------------------------------------------

    def shard_of(self, key: str) -> int:
        return self.router.shard_of(key)

    def _slot_for(self, shard_index: int, key: str, create: bool):
        assignment = self._assignments[shard_index]
        slot = assignment.get(key)
        if slot is None and create:
            capacity = self.config.shards[shard_index].capacity
            if len(assignment) >= capacity:
                raise ShardCapacityExceeded(
                    f"shard {shard_index} is full ({capacity} slots);"
                    f" cannot place key {key!r}"
                )
            slot = len(assignment)
            assignment[key] = slot
        return slot

    def _writer_index(self, shard_index: int, writer: "Optional[int]") -> int:
        """Which of the slot's ``k_writers`` writer clients serves
        writer identity ``writer``."""
        if writer is None:
            raise WriterBoundExceeded(
                "read-only session (opened with writer=None) cannot write"
            )
        shard = self.config.shards[shard_index]
        if shard.substrate != "register":
            # Space does not depend on the writer count: multiplex any
            # number of identities onto the provisioned clients.
            return writer % shard.k_writers
        if writer >= shard.k_writers:
            raise WriterBoundExceeded(
                f"writer {writer} exceeds shard {shard_index}'s"
                f" provisioned bound k={shard.k_writers}"
                " (register substrate; Table 1's space economics are"
                " per provisioned writer)"
            )
        return writer

    def _enqueue(
        self,
        session: "ServiceSession",
        kind: str,
        key: str,
        value: Any,
        token: Any,
    ) -> "Optional[int]":
        """The one key -> shard -> slot -> client decision, shared by the
        synchronous and asynchronous paths: enqueue ``kind`` on the
        client that serves it and return the shard to drive, or complete
        at once (``None``) when the key was never written — no slot, so
        no quorum round."""
        shard_index = self.router.shard_of(key)
        fleet = self.fleets[shard_index]
        if kind == "get":
            slot = self._slot_for(shard_index, key, create=False)
            if slot is None:
                self._on_complete(token, "read", None)
                return None
            runtime = fleet.reader(slot, session.session_index % READER_POOL)
            name, args = "read", ()
        else:
            # Before the slot: a refused writer must not claim one.
            writer_index = self._writer_index(shard_index, session.writer)
            slot = self._slot_for(shard_index, key, create=kind == "put")
            if slot is None:  # delete of an unknown key
                self._on_complete(token, "write", "ack")
                return None
            runtime = fleet.writer(slot, writer_index)
            name, args = "write", (TOMBSTONE if kind == "delete" else value,)
        if runtime.on_complete is None:
            runtime.on_complete = self._on_complete
        runtime.enqueue(name, *args, token=token)
        return shard_index

    def _on_complete(self, token: Any, name: str, result: Any) -> None:
        if token is None:
            return
        if token.__class__ is _SyncToken:
            # A synchronous caller is waiting in _sync; async tokens
            # stay queued for drain_completions (the two may interleave).
            self._results[token] = result
            return
        stamp = self._clock() if self._clock is not None else None
        self._completions.append((token, name, result, stamp))

    # -- synchronous operations ----------------------------------------------

    def _sync(
        self, session: "ServiceSession", kind: str, key: str, value: Any = None
    ) -> Any:
        """Run one operation to completion: enqueue it, drive the owning
        shard to quiescence, return what the protocol returned."""
        token = _SyncToken(self._sync_counter)
        self._sync_counter += 1
        shard_index = self._enqueue(session, kind, key, value, token)
        if shard_index is not None:
            result = self.fleets[shard_index].run_to_quiescence()
            if not result.satisfied:
                raise QuorumUnavailable(
                    f"{kind}({key!r}) on shard {shard_index} did not"
                    f" complete: {result}"
                )
        return self._results.pop(token)

    # -- asynchronous operations (load generation) ---------------------------

    def submit(
        self,
        session: "ServiceSession",
        kind: str,
        key: str,
        value: Any = None,
        token: Any = None,
    ) -> Any:
        """Enqueue ``kind`` (``"put"``/``"get"``/``"delete"``) without
        driving the shard; completion arrives via
        :meth:`drain_completions` once the kernels are stepped."""
        self.router.check_version(session.map_version)
        self._enqueue(session, kind, key, value, token)
        return token

    def step(self, max_steps_per_shard: int = 2_000) -> int:
        """Advance every shard kernel a bounded amount; returns steps run.

        The loadgen's pump: bounded so the caller's admission loop keeps
        control of wall-clock pacing even when a shard has a deep queue.
        """
        total = 0
        for fleet in self.fleets:
            result = fleet.run_to_quiescence(max_steps=max_steps_per_shard)
            total += result.steps
        return total

    def drain_completions(self) -> "List[Tuple[Any, str, Any, Any]]":
        """All (token, op name, result, clock stamp) completed so far."""
        drained = list(self._completions)
        self._completions.clear()
        return drained

    # -- whole-service views ---------------------------------------------------

    def keys(self) -> "List[str]":
        return sorted(
            key
            for assignment in self._assignments
            for key in assignment
        )

    def audit(self) -> "Dict[str, bool]":
        """Per-key consistency audit with the substrate's checker.

        Key ↔ slot is one-to-one, so each key's audit is its slot's
        filtered history run through ``check_ws_regular`` (register) or
        ``is_register_history_atomic`` (max-register / cas).
        """
        results: "Dict[str, bool]" = {}
        for shard_index, assignment in enumerate(self._assignments):
            fleet = self.fleets[shard_index]
            for key, slot in assignment.items():
                results[key] = fleet.audit_slot(slot)
        return results

    def describe(self) -> "Dict[str, Any]":
        return {
            "shards": self.config.n_shards,
            "map_version": self.router.version,
            "keys": len(self.keys()),
            "base_objects": [f.total_objects for f in self.fleets],
            "substrates": [s.substrate for s in self.config.shards],
        }

    # -- control plane ---------------------------------------------------------

    def bump_map(self) -> int:
        """Advance the shard-map version; open sessions must refresh."""
        return self.router.bump()

    def crash_server(self, server_index: int) -> None:
        """Crash sim server ``server_index`` in every shard (one node of
        the physical fleet dying takes its replica of each shard)."""
        for fleet in self.fleets:
            fleet.crash_server(server_index)

    def _blackholes(self) -> "List[Callable[[Any], None]]":
        """Every shard transport's ``set_blackhole``, or
        :class:`~repro.errors.TransportUnavailable` naming the first shard
        whose transport has none (only socket transports can blackhole)."""
        setters = []
        for shard_index, fleet in enumerate(self.fleets):
            set_blackhole = getattr(fleet.transport, "set_blackhole", None)
            if set_blackhole is None:
                raise TransportUnavailable(
                    f"shard {shard_index} runs over"
                    f" {type(fleet.transport).__name__}, which cannot"
                    " blackhole servers; partitions need a socket transport"
                )
            setters.append(set_blackhole)
        return setters

    def partition(self, server_indices) -> None:
        """Blackhole the given servers on every shard's socket transport.

        Raises :class:`~repro.errors.TransportUnavailable`, before any
        shard is touched, if some shard's transport cannot blackhole.
        """
        for set_blackhole in self._blackholes():
            set_blackhole(server_indices)

    def heal(self) -> None:
        """Clear the partition on every shard (same refusal as
        :meth:`partition`)."""
        for set_blackhole in self._blackholes():
            set_blackhole(())

    def close(self) -> None:
        for fleet in self.fleets:
            transport = fleet.transport
            if transport is not None and hasattr(transport, "close"):
                transport.close()


class ServiceSession:
    """One client's handle on the service: ``put``/``get``/``delete``/
    ``scan`` and their ``submit_*`` forms.

    Carries the writer identity (``None``: read-only) and the shard-map
    version it routed with.  Sessions are context managers; a closed one
    refuses further operations with ``SessionClosed``.
    """

    def __init__(
        self,
        service: ShardedKVService,
        writer: "Optional[int]",
        session_index: int,
    ):
        self._service = service
        self.writer = writer
        self.session_index = session_index
        self.map_version = service.router.version
        self.closed = False

    def __enter__(self) -> "ServiceSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.closed = True

    def refresh(self) -> None:
        """Re-capture the service's current shard map."""
        self.map_version = self._service.router.version

    def _check(self) -> None:
        if self.closed:
            raise SessionClosed("operation on a closed service session")
        self._service.router.check_version(self.map_version)

    # -- synchronous operations --------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Write ``value`` to ``key`` as this session's writer."""
        self._check()
        self._service._sync(self, "put", key, value)

    def get(self, key: str, default: Any = None) -> Any:
        """Read ``key``; ``default`` for never-written or deleted keys."""
        self._check()
        value = self._service._sync(self, "get", key)
        if value is None or value == TOMBSTONE:
            return default
        return value

    def delete(self, key: str) -> None:
        """Delete ``key`` (writes the tombstone); a no-op on an unknown
        key."""
        self._check()
        self._service._sync(self, "delete", key)

    def scan(self, prefix: str = "") -> "Dict[str, Any]":
        """Read every live key starting with ``prefix``, sorted (per-key
        consistent, not an atomic cross-shard snapshot)."""
        self._check()
        view: "Dict[str, Any]" = {}
        for key in self._service.keys():
            if key.startswith(prefix):
                value = self.get(key)
                if value is not None:
                    view[key] = value
        return view

    # -- asynchronous operations -------------------------------------------

    def submit_put(self, key: str, value: Any, token: Any) -> Any:
        self._check()
        return self._service.submit(self, "put", key, value, token=token)

    def submit_get(self, key: str, token: Any) -> Any:
        self._check()
        return self._service.submit(self, "get", key, token=token)

    def submit_delete(self, key: str, token: Any) -> Any:
        self._check()
        return self._service.submit(self, "delete", key, token=token)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (
            f"ServiceSession(writer={self.writer},"
            f" v{self.map_version}, {state})"
        )
