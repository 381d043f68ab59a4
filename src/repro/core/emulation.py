"""The emulation contract, its one deployment shell, and the registry.

Every deployed emulation in :mod:`repro.core` exposes the same surface —
``kernel`` / ``object_map`` / ``history`` / ``system`` plus
``add_writer(index)`` / ``add_reader()`` — and that surface is stated
and implemented once, here:

* :class:`Emulation` — a ``typing.Protocol`` naming the surface, so
  conformance is checkable (``isinstance`` works — the protocol is
  ``runtime_checkable``).
* :class:`Deployment` — the shell every single-register emulation class
  subclasses.  It owns the one ``build_system`` call, the properties,
  the list of client protocols, ``add_client`` / ``add_writer`` /
  ``add_reader`` / ``writer_client_id`` and ``audit()``; a subclass
  states only what differs between the paper's algorithms: its
  parameter check, its placements, ``make_client``, and — as class
  attributes — its history op names, its consistency condition, its
  auto-numbering rule and whether its writers are bounded by ``k``.
* :class:`EmulationSpec` — a picklable *description* of an emulation
  (algorithm name + parameters + scheduler seed).  Deployed emulations
  hold a live kernel, client coroutines and listener closures and cannot
  cross a process boundary; a spec can, which is what lets the parallel
  experiment engine (:mod:`repro.exec`) fan work out to worker
  processes and rebuild identical deployments there.

The algorithm registry maps stable names to the classes themselves
(``@register_algorithm("abd")`` on the class)::

    spec = EmulationSpec("ws-register", k=2, n=5, f=2, seed=7)
    emu = spec.build()           # a WSRegisterEmulation, seeded scheduler
    run_workload(spec, workload) # runner builds it for you
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.consistency.conditions import CONDITIONS
from repro.errors import BoundViolation, InvalidConfig, WriterBoundExceeded
from repro.sim.client import ClientProtocol, ClientRuntime
from repro.sim.history import History
from repro.sim.ids import ClientId
from repro.sim.kernel import Environment
from repro.sim.scheduling import RandomScheduler, Scheduler
from repro.sim.system import Placement, SimSystem, build_system

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.config import TransportConfig


@runtime_checkable
class Emulation(Protocol):
    """A deployed register (or max-register) emulation.

    The properties expose the wired simulation; the two methods attach
    clients.  ``add_writer(i)`` registers writer ``i`` (0-based; bounded
    by ``k`` where the algorithm bounds writers); ``add_reader()``
    attaches a fresh reader (readers are unbounded everywhere).
    """

    @property
    def kernel(self) -> Any: ...

    @property
    def object_map(self) -> Any: ...

    @property
    def history(self) -> Any: ...

    @property
    def system(self) -> Any: ...

    def add_writer(self, writer_index: int) -> Any: ...

    def add_reader(self) -> Any: ...


#: auto-numbering rule -> the next automatic client id of a deployment
#: (auto-numbered readers add 1000).  The rules differ per algorithm for
#: no deeper reason than history; the golden histories pin them, so they
#: are carried as data.
_AUTO_IDS: "Dict[str, Callable[[Deployment], int]]" = {
    "readers": lambda d: d.k + d._auto_readers,
    "next-id": lambda d: d._next_id,
    "clients": lambda d: len(d.clients),
}


def require_majority(n: int, f: int) -> None:
    """Theorem 5: ``f`` crashes are tolerable only on ``n >= 2f+1`` servers."""
    if n < 2 * f + 1:
        raise BoundViolation(f"need n >= 2f+1, got n={n}, f={f}")


class Deployment:
    """One emulated register (or max-register) wired onto a kernel.

    A subclass's constructor validates its parameters, computes its
    placements and calls ``super().__init__``; it implements
    :meth:`make_client` and overrides the class attributes below where
    the algorithm differs from the defaults.
    """

    #: names of the high-level operations (what ``history.writes`` /
    #: ``history.reads`` select on)
    WRITE, READ = "write", "read"
    #: the consistency condition the algorithm guarantees (a key of
    #: :data:`repro.consistency.conditions.CONDITIONS`)
    CONDITION = "ws-regular"
    #: True where the algorithm provisions exactly ``self.k`` writers,
    #: one client each; False where any client may write
    BOUNDED_WRITERS = False
    #: how clients without an explicit id are numbered (a key of
    #: ``_AUTO_IDS``)
    AUTO_IDS = "clients"

    def __init__(
        self,
        n_servers: int,
        placements: "Sequence[Placement]",
        initial_value: Any,
        scheduler: "Optional[Scheduler]" = None,
        environment: "Optional[Environment]" = None,
    ):
        self.initial_value = initial_value
        self.system: SimSystem = build_system(
            n_servers,
            placements,
            scheduler=scheduler,
            environment=environment,
            history=History(write_name=self.WRITE, read_name=self.READ),
        )
        self.kernel = self.system.kernel
        # A deployment is an analysis object: its kernel keeps each base
        # object's ops while it has at most RECORDED_OPS_PER_OBJECT, the
        # projections the substrate audit (verify_run's too) reads.
        self.kernel.ops.record()
        self.history: History = self.system.history
        self.object_map = self.system.object_map
        #: the protocol object of every client added, in order
        self.clients: "List[ClientProtocol]" = []
        self._writers: "Dict[int, ClientId]" = {}
        self._auto_readers = 0
        self._next_id = 0

    @property
    def total_objects(self) -> int:
        """Resource consumption: the base objects deployed."""
        return self.object_map.n_objects

    # -- clients ---------------------------------------------------------------

    def make_client(
        self, writer_index: "Optional[int]", client_id: ClientId
    ) -> ClientProtocol:
        """The algorithm's client protocol (a reader when
        ``writer_index`` is None)."""
        raise NotImplementedError

    def add_client(
        self,
        client_id: "Optional[ClientId]" = None,
        writer_index: "Optional[int]" = None,
    ) -> ClientRuntime:
        """Attach one client, auto-numbered when ``client_id`` is None."""
        if client_id is None:
            client_id = ClientId(_AUTO_IDS[self.AUTO_IDS](self))
        protocol = self.make_client(writer_index, client_id)
        self.clients.append(protocol)
        self._next_id = max(self._next_id, client_id.index) + 1
        return self.kernel.add_client(client_id, protocol)

    def add_writer(
        self, writer_index: int, client_id: "Optional[ClientId]" = None
    ) -> ClientRuntime:
        """Register writer ``writer_index`` (0-based; ``< k`` and at most
        once where writers are bounded), as ``ClientId(writer_index)``
        unless ``client_id`` says otherwise."""
        if self.BOUNDED_WRITERS:
            if not 0 <= writer_index < self.k:
                raise WriterBoundExceeded(
                    f"writer index {writer_index} out of range [0, {self.k})"
                )
            if writer_index in self._writers:
                raise InvalidConfig(f"writer {writer_index} already added")
        if client_id is None:
            client_id = ClientId(writer_index)
        runtime = self.add_client(client_id, writer_index)
        self._writers[writer_index] = client_id
        return runtime

    def add_reader(
        self, client_id: "Optional[ClientId]" = None
    ) -> ClientRuntime:
        """Attach a reader (readers are unbounded everywhere)."""
        if client_id is None:
            client_id = ClientId(1000 + _AUTO_IDS[self.AUTO_IDS](self))
            self._auto_readers += 1
        return self.add_client(client_id)

    def writer_client_id(self, writer_index: int) -> ClientId:
        return self._writers[writer_index]

    # -- auditing --------------------------------------------------------------

    def audit(self) -> bool:
        """Whether the recorded history satisfies :attr:`CONDITION`."""
        return CONDITIONS[self.CONDITION].holds(
            self.history, self.initial_value
        )


#: algorithm name -> emulation class
_ALGORITHMS: "Dict[str, Callable[..., Any]]" = {}


def register_algorithm(name: str):
    """Class decorator: register an emulation class under ``name``.

    :meth:`EmulationSpec.build` passes the class those of ``k`` / ``n``
    / ``f`` its constructor names, so a class states which of the
    paper's parameters it depends on simply by declaring them.
    """

    def wrap(cls):
        _ALGORITHMS[name] = cls
        return cls

    return wrap


def algorithm_names() -> "Tuple[str, ...]":
    return tuple(sorted(_ALGORITHMS))


@dataclass(frozen=True)
class EmulationSpec:
    """A picklable factory description for an :class:`Emulation`.

    ``algorithm`` names a registered class; ``k``/``n``/``f`` are
    the paper's parameters (leave at ``None`` where the algorithm does
    not take them); ``seed`` seeds the scheduler (``None`` uses the
    simulator default, ``RandomScheduler(0)``); ``options`` carries any
    extra constructor keywords as a sorted item tuple so the spec stays
    hashable; ``transport`` is an optional
    :class:`~repro.net.config.TransportConfig` (``None`` means direct
    in-process delivery) — it is part of the spec's identity, so the
    experiment engine's result cache keys on it.
    """

    algorithm: str
    k: "Optional[int]" = None
    n: "Optional[int]" = None
    f: "Optional[int]" = None
    seed: "Optional[int]" = None
    options: "Tuple[Tuple[str, Any], ...]" = ()
    transport: "Optional[TransportConfig]" = None

    @classmethod
    def make(cls, algorithm: str, **params) -> "EmulationSpec":
        """Build a spec, routing unknown keywords into ``options``."""
        known = {
            key: params.pop(key)
            for key in ("k", "n", "f", "seed", "transport")
            if key in params
        }
        return cls(
            algorithm,
            options=tuple(sorted(params.items())),
            **known,
        )

    def build(self) -> Emulation:
        """Construct the described emulation (fresh kernel, no clients)."""
        try:
            factory = _ALGORITHMS[self.algorithm]
        except KeyError:
            raise InvalidConfig(
                f"unknown algorithm {self.algorithm!r};"
                f" known: {', '.join(algorithm_names())}"
            ) from None
        declared = inspect.signature(factory).parameters
        kwargs: "Dict[str, Any]" = dict(self.options)
        for name in ("k", "n", "f"):
            value = getattr(self, name)
            if value is not None and name in declared:
                kwargs[name] = value
        if self.seed is not None:
            kwargs["scheduler"] = RandomScheduler(self.seed)
        emulation = factory(**kwargs)
        if self.transport is not None:
            # Attached after construction (before any trigger) so the
            # emulation constructors stay transport-oblivious.
            emulation.kernel.set_transport(self.transport.build())
        return emulation
