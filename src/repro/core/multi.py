"""Several emulated registers sharing one server fleet.

Production stores keep many objects on the same machines: crashes hit
every object on the server at once, and per-server storage is the *sum*
over objects — which is what makes Theorem 7's per-server capacity bound
bite.  :class:`SlotFleet` is the one engine for that: ``m`` independent
emulated registers ("slots") of one of the three Table 1 substrates over
a single :class:`~repro.sim.server.ObjectMap` and one kernel — one crash
event, one schedule, ``m`` consistency-checked registers:

* ``register`` — each slot is an Algorithm 2 layout shifted into the
  shared object-id space (``kf + ceil(k/z)(f+1)`` registers per slot,
  ``k`` writers); its clients' collects scan only its own registers, so
  the emulations compose without interference — asserted by the test
  suite;
* ``max-register`` — each slot is an ABD instance over ``n``
  max-registers, one per server (2f+1 at the minimum, writers
  unbounded);
* ``cas`` — ABD whose per-server max-register is Algorithm 1 over a
  single CAS object.

The KV service builds one :class:`SlotFleet` per shard from its
``ShardConfig`` and keeps only pending ops.
:class:`MultiRegisterDeployment` is the recording front: the engine on
the register substrate, recording its op log for the substrate audit
and handing out its slots as ``register(i)`` (a :class:`Slot` has the
emulation surface the workload runner expects).  Placements are a pure
function of the parameters (:func:`slot_placements`), so a replica
process in another machine image rebuilds byte-identical base objects
from the same numbers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.consistency.conditions import CONDITIONS
from repro.core.abd import ABDClient
from repro.core.bounds import table1_row
from repro.core.cas_maxreg import CASABDClient
from repro.core.layout import RegisterLayout
from repro.core.ws_register import WSRegisterClient
from repro.errors import BoundViolation, InvalidConfig
from repro.sim.client import ClientRuntime
from repro.sim.events import EventListener
from repro.sim.history import History
from repro.sim.ids import ClientId, ObjectId, ServerId
from repro.sim.kernel import Environment
from repro.sim.scheduling import Scheduler
from repro.sim.system import Placement, SimSystem, build_system
from repro.sim.values import bottom_tsval

#: quorum substrate (named after its base-object type) -> the ABD client
#: that runs over one such object per server
_QUORUM_CLIENTS = {"max-register": ABDClient, "cas": CASABDClient}


class OffsetLayout:
    """A view of a :class:`RegisterLayout` shifted into shared id space."""

    def __init__(self, base: RegisterLayout, offset: int):
        self.base = base
        self.offset = offset

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def f(self) -> int:
        return self.base.f

    @property
    def total_registers(self) -> int:
        return self.base.total_registers

    def _shift(self, object_id: ObjectId) -> ObjectId:
        return ObjectId(object_id.index + self.offset)

    def registers_for_writer(self, writer_index: int) -> "List[ObjectId]":
        return [
            self._shift(oid)
            for oid in self.base.registers_for_writer(writer_index)
        ]

    def registers_on_server(self, server_id: ServerId) -> "List[ObjectId]":
        return [
            self._shift(oid)
            for oid in self.base.registers_on_server(server_id)
        ]

    def server_of(self, object_id: ObjectId) -> ServerId:
        return self.base.server_of(ObjectId(object_id.index - self.offset))

    def read_quorum_servers(self) -> int:
        return self.base.read_quorum_servers()

    def storage_profile(self):
        return self.base.storage_profile()


def slot_placements(
    substrate: str, m: int, k: int, n: int, f: int, initial_value: Any = None
) -> "Tuple[List[Placement], Optional[List[OffsetLayout]]]":
    """``(placements, layouts)`` of ``m`` slots laid end to end in one
    object-id space.  On the register substrate slot ``i``'s Algorithm 2
    layout is shifted past the registers of ``0..i-1`` and ``layouts``
    lists the shifted views; on the quorum substrates slot ``s`` simply
    owns object ``s*n + i`` on server ``i`` and ``layouts`` is ``None``.
    """
    if substrate == "register":
        placements: "List[Placement]" = []
        layouts: "List[OffsetLayout]" = []
        offset = 0
        for _ in range(m):
            base = RegisterLayout(k, n, f, initial_value)
            base.validate()
            layouts.append(OffsetLayout(base, offset))
            placements.extend(base.placements())
            offset += base.total_registers
        return placements, layouts
    v0 = bottom_tsval(initial_value)
    return [
        (server_index, substrate, v0)
        for _ in range(m)
        for server_index in range(n)
    ], None


#: Client-id partitioning of every multi-slot deployment: slot ``s``
#: (a register here, a key's slot in :mod:`repro.apps.shard`) owns ids
#: ``[s*SLOT_STRIDE, (s+1)*SLOT_STRIDE)``; writers at the bottom,
#: readers from ``+READER_BASE``.
SLOT_STRIDE = 100_000
READER_BASE = 50_000


def slot_client_id(slot: int, offset: int) -> ClientId:
    """The client id at ``offset`` of ``slot``'s range."""
    return ClientId(slot * SLOT_STRIDE + offset)


class SlotHistoryRouter(EventListener):
    """Hands each high-level event to the history of the slot that owns
    the client, found from the id partitioning: one listener per
    deployment, so recording costs the same however many slots exist.

    The id partition is the one decision of which slot owns a client:
    only the fleet creates clients in a slot's range, and an id outside
    every slot's range is dropped here.  A :class:`SlotFleet` hands it
    to ``build_system`` as the system's recorder, subscribed for the
    kernel's lifetime: per-slot histories are part of the deployment
    and must span every run, crash and restart.
    """

    def __init__(self, histories: "List[History]"):
        self._histories = histories

    def on_invoke(self, event) -> None:
        slot = event.client_id.index // SLOT_STRIDE
        if 0 <= slot < len(self._histories):
            self._histories[slot].on_invoke(event)

    def on_return(self, event) -> None:
        slot = event.client_id.index // SLOT_STRIDE
        if 0 <= slot < len(self._histories):
            self._histories[slot].on_return(event)


class Slot:
    """One emulated register of a fleet, with the emulation surface the
    workload runner and checkers expect (kernel / object_map / system /
    history / add_writer / add_reader)."""

    def __init__(self, fleet: "SlotFleet", index: int, history: History):
        self.fleet = fleet
        self.index = index
        self.system = fleet.system
        self.kernel = fleet.kernel
        self.object_map = fleet.object_map
        self.history = history
        #: by offset in the slot's id range (readers from READER_BASE)
        self.clients: "Dict[int, ClientRuntime]" = {}
        self._next_reader = 0

    @property
    def layout(self) -> OffsetLayout:
        """The slot's shifted Algorithm 2 layout (register substrate)."""
        return self.fleet.layouts[self.index]

    def add_writer(self, writer_index: int) -> ClientRuntime:
        if writer_index in self.clients:
            raise InvalidConfig(
                f"writer {writer_index} already added to register"
                f" {self.index}"
            )
        return self.fleet.writer(self.index, writer_index)

    def add_reader(self) -> ClientRuntime:
        reader_index = self._next_reader
        self._next_reader += 1
        return self.fleet.reader(self.index, reader_index)

    def audit(self) -> bool:
        """Check the slot's history against its substrate's condition."""
        return CONDITIONS[self.fleet.condition].holds(
            self.history, self.fleet.initial_value
        )


class SlotFleet:
    """``m`` emulated registers of one substrate over ``n`` servers."""

    def __init__(
        self,
        substrate: str,
        m: int,
        k: int,
        n: int,
        f: int,
        initial_value: Any = None,
        scheduler: "Optional[Scheduler]" = None,
        environment: "Optional[Environment]" = None,
        transport: Any = None,
    ):
        if m <= 0:
            raise InvalidConfig("need at least one register")
        self.substrate = substrate
        self.m = m
        self.n = n
        self.f = f
        self.initial_value = initial_value
        #: what every slot audits against: Algorithm 2 is WS-Regular,
        #: ABD (with write-back) atomic
        self.condition = "ws-regular" if substrate == "register" else "atomic"
        placements, self.layouts = slot_placements(
            substrate, m, k, n, f, initial_value
        )
        # Table 1 as a runtime check: no slot may use fewer base objects
        # than the lower bound allows.  The upper bound is not checked:
        # the quorum substrates place one object per server, n >= 2f+1.
        #: base objects behind one slot: every slot has the same layout
        self.objects_per_slot = per_slot = len(placements) // m
        lower = table1_row(substrate, k, n, f)["lower"]
        if per_slot < lower:
            raise BoundViolation(
                f"{per_slot} {substrate} object(s) per slot at k={k}, n={n},"
                f" f={f}: below Table 1's lower bound of {lower}"
            )
        histories = [History() for _ in range(m)]
        # The router is the fleet's one recorder: each op is recorded
        # once, in its slot's history (a fleet-wide History beside it
        # would hold every op a second time, read by nobody).
        self.system: SimSystem = build_system(
            n,
            placements,
            scheduler=scheduler,
            environment=environment,
            history=SlotHistoryRouter(histories),
            transport=transport,
        )
        self.kernel = self.system.kernel
        self.object_map = self.system.object_map
        self.slots = [
            Slot(self, index, history) for index, history in enumerate(histories)
        ]

    @property
    def transport(self):
        return self.kernel.transport

    def writer(self, slot_index: int, writer_index: int) -> ClientRuntime:
        """The slot's writer client ``writer_index``, created on first
        use.  The *caller* (the KV service's session layer) raises
        :class:`~repro.errors.WriterBoundExceeded` past ``k``."""
        return self._client(slot_index, writer_index, writer_index)

    def reader(self, slot_index: int, reader_index: int = 0) -> ClientRuntime:
        """The slot's reader client ``reader_index``, created on first
        use."""
        return self._client(slot_index, READER_BASE + reader_index, None)

    def _client(
        self, slot_index: int, offset: int, writer_index: "Optional[int]"
    ) -> ClientRuntime:
        """The slot's client at ``offset`` of its id range, created on
        first use (a reader when ``writer_index`` is None)."""
        slot = self.slots[slot_index]
        runtime = slot.clients.get(offset)
        if runtime is None:
            client_id = slot_client_id(slot_index, offset)
            if self.layouts is not None:
                protocol = WSRegisterClient(
                    self.layouts[slot_index],
                    self.object_map,
                    writer_index=writer_index,
                    initial_value=self.initial_value,
                )
            else:
                n = self.n
                tag = READER_BASE if writer_index is None else writer_index
                protocol = _QUORUM_CLIENTS[self.substrate](
                    n,
                    self.f,
                    writer_id=slot_index * SLOT_STRIDE + tag,
                    initial_value=self.initial_value,
                    object_ids=[
                        ObjectId(slot_index * n + i) for i in range(n)
                    ],
                )
            runtime = self.kernel.add_client(client_id, protocol)
            slot.clients[offset] = runtime
        return runtime

    def run_to_quiescence(self, max_steps: int = 200_000):
        return self.system.run_to_quiescence(max_steps=max_steps)

    def crash_server(self, server_index: int) -> None:
        """One crash event: every slot loses that server at once."""
        if not 0 <= server_index < self.n:
            raise BoundViolation(
                f"server index {server_index} out of range [0, {self.n})"
            )
        self.kernel.crash_server(ServerId(server_index))

    @property
    def total_objects(self) -> int:
        """Base objects the fleet consumes (Table 1, summed over slots)."""
        return self.object_map.n_objects

    def storage_profile(self):
        """Per-server base-object counts, summed over all slots
        (Theorem 7's capacity view)."""
        return self.object_map.storage_profile()


class MultiRegisterDeployment(SlotFleet):
    """``m`` Algorithm 2 registers on one shared fleet of ``n`` servers."""

    def __init__(
        self,
        m: int,
        k: int,
        n: int,
        f: int,
        initial_value: Any = None,
        scheduler: "Optional[Scheduler]" = None,
        environment: "Optional[Environment]" = None,
    ):
        super().__init__(
            "register", m, k, n, f, initial_value, scheduler, environment
        )
        # An analysis object, like a Deployment: it keeps each base
        # object's ops up to RECORDED_OPS_PER_OBJECT for the substrate
        # audit (a KV service fleet keeps only pending ops).
        self.kernel.ops.record()

    def register(self, index: int) -> Slot:
        return self.slots[index]

    total_registers = SlotFleet.total_objects
