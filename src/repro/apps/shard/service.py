"""The sharded KV service: S independent fleets behind one session API.

Keys route by stable hash to one of ``S`` shards
(:class:`~repro.apps.shard.router.ShardRouter`); each shard is an
independent :class:`~repro.core.multi.SlotFleet` (one slot per key, up
to the shard's ``capacity``) with its own quorum layout, scheduler
stream and (optionally) its own socket transport.  Clients interact
through :class:`ServiceSession` handles:

* synchronous ``put/get/delete/scan`` — each drives the owning shard to
  quiescence (on a one-shard service this is the whole store: every key
  on one fleet of ``n`` servers);
* an asynchronous ``submit``/:meth:`ShardedKVService.drain_completions`
  path — operations are enqueued with opaque tokens and completed by
  stepping the shard kernels, which is how the open-loop load generator
  multiplexes thousands of concurrent sessions over bounded client
  pools without one blocking drive per operation.

Failures are typed: unknown writers raise
:class:`~repro.errors.WriterBoundExceeded` (register substrate's ``k``
bound, per shard), stalled quorums raise
:class:`~repro.errors.QuorumUnavailable`, full shards raise
:class:`~repro.errors.ShardCapacityExceeded`, and an operation kind
other than ``put`` / ``get`` / ``delete`` raises
:class:`~repro.errors.InvalidConfig`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.apps.shard.config import ShardServiceConfig
from repro.apps.shard.router import ShardRouter
from repro.core.multi import SlotFleet
from repro.errors import (
    InvalidConfig,
    QuorumUnavailable,
    SessionClosed,
    ShardCapacityExceeded,
    TransportUnavailable,
    WriterBoundExceeded,
)
from repro.sim.client import ClientRuntime
from repro.sim.scheduling import RandomScheduler

#: Deletion sentinel (registers cannot shrink, so a delete writes it).
#: A *string* so it crosses the wire format unchanged — shard values
#: cross process boundaries in socket deployments.
TOMBSTONE = "\x00repro:tombstone"

#: Reader clients per slot; sessions share them by ``session_index``.
READER_POOL = 2


class _SyncToken(int):
    """Completion token of one synchronous call: a type no caller's
    opaque async token can be mistaken for."""


class _Placement:
    """Where a placed key lives: its shard, its slot, and the slot's
    clients the service has enqueued on so far (readers by pool index,
    writers by writer index), so an operation on a placed key reaches
    its client by lookups alone."""

    __slots__ = ("shard_index", "slot", "readers", "writers")

    def __init__(self, shard_index: int, slot: int, k_writers: int):
        self.shard_index = shard_index
        self.slot = slot
        self.readers: "List[Optional[ClientRuntime]]" = [None] * READER_POOL
        self.writers: "List[Optional[ClientRuntime]]" = [None] * k_writers


class ShardedKVService:
    """S shards, hash routing, session handles, typed failures."""

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
        self.fleets: "List[SlotFleet]" = [
            SlotFleet(
                shard.substrate,
                shard.capacity,
                shard.k_writers,
                shard.n,
                shard.f,
                # independent, deterministic scheduler stream per shard
                scheduler=RandomScheduler(config.seed * 7919 + shard_index),
                transport=transports[shard_index] if transports else None,
            )
            for shard_index, shard in enumerate(config.shards)
        ]
        #: key -> its placement (lazy, first-come: a key takes its
        #: shard's next slot at its first put)
        self._placements: "Dict[str, _Placement]" = {}
        #: per shard: slots taken so far
        self._placed: "List[int]" = [0] * config.n_shards
        self._completions: "Deque[Tuple[Any, str, Any, Any]]" = deque()
        self._results: "Dict[Any, Any]" = {}
        self._sync_counter = 0
        self._session_counter = 0
        self._clock: "Optional[Callable[[], float]]" = None

    # -- sessions ------------------------------------------------------------

    def session(self, writer: "Optional[int]" = 0) -> "ServiceSession":
        """Open a session bound to writer identity ``writer``
        (``None``: read-only — its writes raise ``WriterBoundExceeded``).

        Any number may be open concurrently.
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

    def _place(self, shard_index: int, key: str) -> _Placement:
        """Give ``key`` its shard's next slot, or raise
        :class:`~repro.errors.ShardCapacityExceeded` when none is left."""
        shard = self.config.shards[shard_index]
        slot = self._placed[shard_index]
        if slot >= shard.capacity:
            raise ShardCapacityExceeded(
                f"shard {shard_index} is full ({shard.capacity} slots);"
                f" cannot place key {key!r}"
            )
        self._placed[shard_index] = slot + 1
        placement = _Placement(shard_index, slot, shard.k_writers)
        self._placements[key] = placement
        return placement

    def _hooked(self, runtime: ClientRuntime) -> ClientRuntime:
        """``runtime``, reporting its completions to this service."""
        if runtime.on_complete is None:
            runtime.on_complete = self._on_complete
        return runtime

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
        no quorum round.  Only a key's first put routes it; later
        operations find its placement, and the client once used, in
        ``_placements``."""
        placement = self._placements.get(key)
        if kind == "get":
            if placement is None:
                self._on_complete(token, "read", None)
                return None
            index = session.session_index % READER_POOL
            runtime = placement.readers[index]
            if runtime is None:
                fleet = self.fleets[placement.shard_index]
                runtime = placement.readers[index] = self._hooked(
                    fleet.reader(placement.slot, index)
                )
            runtime.enqueue("read", token=token)
            return placement.shard_index
        # Before the slot: a refused write must not claim one.
        if kind != "put" and kind != "delete":
            raise InvalidConfig(
                f"unknown operation kind {kind!r}: expected put|get|delete"
            )
        if placement is None:
            shard_index = self.router.shard_of(key)
            writer_index = self._writer_index(shard_index, session.writer)
            if kind == "delete":  # of an unknown key
                self._on_complete(token, "write", "ack")
                return None
            placement = self._place(shard_index, key)
        else:
            writer_index = self._writer_index(
                placement.shard_index, session.writer
            )
        runtime = placement.writers[writer_index]
        if runtime is None:
            fleet = self.fleets[placement.shard_index]
            runtime = placement.writers[writer_index] = self._hooked(
                fleet.writer(placement.slot, writer_index)
            )
        runtime.enqueue(
            "write", TOMBSTONE if kind == "delete" else value, token=token
        )
        return placement.shard_index

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
        """Enqueue ``kind`` (``"put"``/``"get"``/``"delete"``; any other
        kind raises :class:`~repro.errors.InvalidConfig`) without
        driving the shard; completion arrives via
        :meth:`drain_completions` once the kernels are stepped."""
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
        return sorted(self._placements)

    def audit(self) -> "Dict[str, bool]":
        """Per-key consistency audit with the substrate's checker.

        Key ↔ slot is one-to-one, so each key's audit is its slot's
        history run through ``check_ws_regular`` (register) or
        ``is_register_history_atomic`` (max-register / cas).
        """
        return {
            key: self.fleets[placement.shard_index].slots[placement.slot].audit()
            for key, placement in self._placements.items()
        }

    # -- control plane ---------------------------------------------------------

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

    Carries the writer identity (``None``: read-only).  Sessions are
    context managers; a closed one refuses further operations with
    ``SessionClosed``.
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
        self.closed = False

    def __enter__(self) -> "ServiceSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.closed = True

    def _check(self) -> None:
        if self.closed:
            raise SessionClosed("operation on a closed service session")

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
        return f"ServiceSession(writer={self.writer}, {state})"
