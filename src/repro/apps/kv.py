"""A replicated key-value store over register emulations.

Each key is one emulated f-tolerant register; the substrate — which base
object type the servers expose — is pluggable, so the store directly
inherits Table 1's space economics:

* ``"max-register"`` / ``"cas"``: 2f+1 base objects per key, unbounded
  writers;
* ``"register"``: kf + ceil(k/z)(f+1) base objects per key, k fixed
  writers (the store enforces the writer bound).

Clients talk to the store through *sessions*::

    store = ReplicatedKVStore(KVConfig.make("max-register", n=5, f=2))
    with store.session(writer=0) as s:
        s.put("alpha", 1)
        assert s.get("alpha") == 1
        s.delete("alpha")

A session carries the writer identity once, instead of every ``put``
carrying a positional ``writer_index``; any number of sessions may be
open concurrently (the sharded service in :mod:`repro.apps.shard`
multiplexes thousands).  Writes go through a session only; the store's
own ``get`` / ``keys`` / ``snapshot`` are writer-free reads.

Failures are typed (:mod:`repro.errors`): an out-of-range writer raises
:class:`~repro.errors.WriterBoundExceeded`, a stalled quorum raises
:class:`~repro.errors.QuorumUnavailable`, and a full shared fleet raises
:class:`~repro.errors.ShardCapacityExceeded`.  ``audit()`` replays every
key's history through the appropriate consistency checker.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.ws import check_ws_regular
from repro.core.abd import ABDEmulation
from repro.core.cas_maxreg import CASABDEmulation
from repro.core.ws_register import WSRegisterEmulation
from repro.errors import (
    BoundViolation,
    InvalidConfig,
    QuorumUnavailable,
    SessionClosed,
    ShardCapacityExceeded,
    WriterBoundExceeded,
)
from repro.sim.scheduling import RandomScheduler

SUBSTRATES = ("register", "max-register", "cas")


class _Tombstone:
    """Sentinel written by :meth:`KVSession.delete`."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<deleted>"

    def __eq__(self, other) -> bool:
        return isinstance(other, _Tombstone)

    def __hash__(self) -> int:
        # A fixed constant, not hash("_Tombstone"): str hashing is salted
        # per process, and the sentinel is a process-wide singleton anyway.
        return 0x70B5


TOMBSTONE = _Tombstone()


@dataclass(frozen=True)
class KVConfig:
    """Deployment parameters of the store.

    Validated eagerly at construction (``__post_init__``), frozen and
    picklable, so a config can travel inside experiment specs and key
    the result cache (:meth:`cache_payload`) exactly like
    :class:`~repro.net.config.TransportConfig` does.

    ``shared_fleet=True`` (register substrate only) hosts every key on
    one physical fleet: a single crash event hits all keys and per-server
    storage is the sum over keys — the realistic consolidation regime.
    ``max_keys`` bounds the number of keys provisioned on the shared
    fleet.
    """

    substrate: str = "max-register"
    n: int = 5
    f: int = 2
    k_writers: int = 4
    seed: int = 0
    shared_fleet: bool = False
    max_keys: int = 16

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def make(cls, substrate: str = "max-register", **params) -> "KVConfig":
        """Build a config, mirroring ``EmulationSpec.make``'s shape."""
        return cls(substrate=substrate, **params)

    def validate(self) -> None:
        if self.substrate not in SUBSTRATES:
            raise InvalidConfig(
                f"substrate must be one of {SUBSTRATES},"
                f" got {self.substrate!r}"
            )
        if self.n < 2 * self.f + 1:
            raise InvalidConfig(
                f"n must be at least 2f+1 = {2 * self.f + 1}, got {self.n}"
            )
        if self.k_writers <= 0:
            raise InvalidConfig("k_writers must be positive")
        if self.shared_fleet and self.substrate != "register":
            raise InvalidConfig(
                "shared_fleet deployment is implemented for the register"
                " substrate"
            )
        if self.max_keys <= 0:
            raise InvalidConfig("max_keys must be positive")

    def cache_payload(self) -> "Dict[str, Any]":
        """A canonical JSON-able form for result-cache cell keys."""
        return asdict(self)


@dataclass
class _KeyState:
    emulation: Any
    writers: "Dict[int, Any]" = field(default_factory=dict)
    reader: Any = None


class KVSession:
    """One client's handle on a store: a writer identity plus
    ``put``/``get``/``delete``/``scan``.

    Sessions are context managers; a closed session refuses further
    operations.  Read-only sessions pass ``writer=None`` — their ``put``
    and ``delete`` raise :class:`~repro.errors.WriterBoundExceeded`.
    """

    def __init__(self, store: "ReplicatedKVStore", writer: "Optional[int]"):
        if writer is not None:
            store._check_writer(writer)
        self._store = store
        self.writer = writer
        self.closed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "KVSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.closed = True

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosed("operation on a closed KV session")

    def _writer_index(self) -> int:
        if self.writer is None:
            raise WriterBoundExceeded(
                "read-only session (opened with writer=None) cannot write"
            )
        return self.writer

    # -- operations --------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Write ``value`` to ``key`` as this session's writer."""
        self._check_open()
        self._store._put(key, value, self._writer_index())

    def get(self, key: str, default: Any = None) -> Any:
        """Read ``key``; ``default`` for never-written or deleted keys."""
        self._check_open()
        return self._store._get(key, default)

    def delete(self, key: str) -> None:
        """Delete ``key`` (writes a tombstone; registers cannot shrink).

        Deleting an unknown key is a no-op.
        """
        self._check_open()
        self._store._delete(key, self._writer_index())

    def scan(self, prefix: str = "") -> "Dict[str, Any]":
        """Read every live key starting with ``prefix`` (sorted).

        Per-key consistent, not an atomic multi-key snapshot — each
        entry individually satisfies the substrate's condition.
        """
        self._check_open()
        view = {}
        for key in self._store.keys():
            if not key.startswith(prefix):
                continue
            value = self._store._get(key, None)
            if value is not None:
                view[key] = value
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"KVSession(writer={self.writer}, {state})"


class ReplicatedKVStore:
    """One emulated register per key, all on the chosen substrate."""

    def __init__(self, config: "Optional[KVConfig]" = None, **overrides):
        self.config = config or KVConfig(**overrides)
        if overrides and config is not None:
            raise InvalidConfig("pass either a KVConfig or keyword overrides")
        self._keys: "Dict[str, _KeyState]" = {}
        self._seed = self.config.seed
        self._fleet = None
        self._fleet_next = 0
        if self.config.shared_fleet:
            from repro.core.multi import MultiRegisterDeployment

            self._fleet = MultiRegisterDeployment(
                m=self.config.max_keys,
                k=self.config.k_writers,
                n=self.config.n,
                f=self.config.f,
                scheduler=RandomScheduler(self.config.seed),
            )

    # -- sessions --------------------------------------------------------------

    def session(self, writer: "Optional[int]" = 0) -> KVSession:
        """Open a client session bound to writer ``writer``.

        ``writer=None`` opens a read-only session.  Sessions are cheap;
        open as many concurrently as there are clients.
        """
        return KVSession(self, writer)

    # -- deployment -----------------------------------------------------------

    def _new_emulation(self):
        cfg = self.config
        self._seed += 1
        scheduler = RandomScheduler(self._seed)
        if cfg.substrate == "register":
            return WSRegisterEmulation(
                k=cfg.k_writers, n=cfg.n, f=cfg.f, scheduler=scheduler
            )
        if cfg.substrate == "max-register":
            return ABDEmulation(n=cfg.n, f=cfg.f, scheduler=scheduler)
        return CASABDEmulation(n=cfg.n, f=cfg.f, scheduler=scheduler)

    def _key_state(self, key: str) -> _KeyState:
        state = self._keys.get(key)
        if state is None:
            if self._fleet is not None:
                if self._fleet_next >= self.config.max_keys:
                    raise ShardCapacityExceeded(
                        f"shared fleet provisioned for"
                        f" {self.config.max_keys} keys; {key!r} exceeds it"
                    )
                emulation = self._fleet.register(self._fleet_next)
                self._fleet_next += 1
            else:
                emulation = self._new_emulation()
            state = _KeyState(emulation=emulation)
            state.reader = state.emulation.add_reader()
            self._keys[key] = state
        return state

    def _check_writer(self, writer_index: int) -> None:
        if not 0 <= writer_index < self.config.k_writers:
            raise WriterBoundExceeded(
                f"writer index {writer_index} out of range"
                f" [0, {self.config.k_writers})"
            )

    def _writer(self, state: _KeyState, writer_index: int):
        self._check_writer(writer_index)
        runtime = state.writers.get(writer_index)
        if runtime is None:
            runtime = state.emulation.add_writer(writer_index)
            state.writers[writer_index] = runtime
        return runtime

    # -- operations (session-internal) -------------------------------------------

    def _put(self, key: str, value: Any, writer_index: int) -> None:
        state = self._key_state(key)
        writer = self._writer(state, writer_index)
        writer.enqueue("write", value)
        result = state.emulation.system.run_to_quiescence()
        if not result.satisfied:
            raise QuorumUnavailable(
                f"put({key!r}) did not complete: {result}"
            )

    def _get(self, key: str, default: Any = None) -> Any:
        state = self._keys.get(key)
        if state is None:
            return default
        state.reader.enqueue("read")
        result = state.emulation.system.run_to_quiescence()
        if not result.satisfied:
            raise QuorumUnavailable(
                f"get({key!r}) did not complete: {result}"
            )
        value = state.emulation.history.reads[-1].result
        if value is None or value == TOMBSTONE:
            return default
        return value

    def _delete(self, key: str, writer_index: int) -> None:
        if key in self._keys:
            self._put(key, TOMBSTONE, writer_index)

    # -- writer-free reads ------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Read ``key`` (writer-free; equivalent to a read-only session)."""
        return self._get(key, default)

    def keys(self) -> "List[str]":
        return sorted(self._keys)

    def snapshot(self) -> "Dict[str, Any]":
        """Read every key once; a per-key-consistent view of the store.

        Not an atomic multi-key snapshot (keys are independent emulated
        registers); each entry individually satisfies the substrate's
        consistency condition.  Deleted keys are omitted.
        """
        view = {}
        for key in self.keys():
            value = self._get(key)
            if value is not None:
                view[key] = value
        return view

    # -- failure injection ---------------------------------------------------------

    def crash_server(self, server_index: int) -> None:
        """Crash server ``server_index``.

        On a shared fleet this is one crash event hitting every key; on
        per-key deployments the crash is mirrored into each (the store
        models one fleet either way).
        """
        from repro.sim.ids import ServerId

        if not 0 <= server_index < self.config.n:
            raise BoundViolation(f"server index {server_index} out of range")
        if self._fleet is not None:
            self._fleet.crash_server(server_index)
            return
        for state in self._keys.values():
            state.emulation.kernel.crash_server(ServerId(server_index))

    # -- accounting and auditing ------------------------------------------------------

    @property
    def base_objects(self) -> int:
        """Total base objects across all keys (Table 1, aggregated)."""
        return sum(self.base_objects_per_key().values())

    def base_objects_per_key(self) -> "Dict[str, int]":
        if self._fleet is not None:
            return {
                key: state.emulation.layout.total_registers
                for key, state in self._keys.items()
            }
        return {
            key: state.emulation.object_map.n_objects
            for key, state in self._keys.items()
        }

    def audit(self) -> "Dict[str, bool]":
        """Check every key's history against its consistency condition.

        The RMW substrates (with read write-back) are atomic; the register
        substrate guarantees WS-Regularity.  Returns key -> ok.
        """
        results = {}
        for key, state in self._keys.items():
            history = state.emulation.history
            if self.config.substrate == "register":
                ok = not check_ws_regular(history)
            else:
                ok = is_register_history_atomic(history)
            results[key] = ok
        return results
