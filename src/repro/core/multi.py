"""Several emulated registers sharing one server fleet.

Production stores keep many objects on the same machines: crashes hit
every object on the server at once, and per-server storage is the *sum*
over objects — which is what makes Theorem 7's per-server capacity bound
bite.  :class:`MultiRegisterDeployment` deploys ``m`` independent
Algorithm 2 registers over a single :class:`~repro.sim.server.ObjectMap`
and one kernel: one crash event, one schedule, ``m`` consistency-checked
registers.

Each register keeps its own layout (offset into the shared object-id
space); its clients' collects scan only its own registers, so the
emulations compose without interference — asserted by the test suite.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.layout import RegisterLayout
from repro.errors import InvalidConfig
from repro.sim.events import EventListener
from repro.sim.history import History
from repro.sim.ids import ClientId, ObjectId, ServerId
from repro.sim.kernel import Environment
from repro.sim.scheduling import Scheduler
from repro.sim.system import Placement, SimSystem, build_system


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


def offset_layouts(
    m: int, k: int, n: int, f: int, initial_value: Any = None
) -> "Tuple[List[Placement], List[OffsetLayout]]":
    """``(placements, layouts)`` of ``m`` Algorithm 2 registers laid end
    to end in one object-id space: register ``i``'s layout is shifted
    past the registers of ``0..i-1``.  A pure function of its arguments,
    so any process rebuilds the same base objects from the same numbers.
    """
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


class FilteredHistory(History):
    """A History that records only operations of selected clients: the
    building block of any multi-register deployment (each register
    audits only its own clients' operations)."""

    def __init__(self, client_ids):
        super().__init__()
        self.client_ids = set(client_ids)

    def admit(self, client_id: ClientId) -> None:
        self.client_ids.add(client_id)

    def on_invoke(self, event) -> None:
        if event.client_id in self.client_ids:
            super().on_invoke(event)

    def on_return(self, event) -> None:
        if event.seq in self.ops:
            super().on_return(event)


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

    The slot's :class:`FilteredHistory` still applies its ``admit``
    filter; an id outside every slot's range is dropped here.
    """

    def __init__(self, histories: "List[FilteredHistory]"):
        self._histories = histories

    def install(self, kernel) -> None:
        """Subscribe for the kernel's lifetime: per-slot histories are
        part of the deployment and must span every run, crash and
        restart."""
        kernel.add_listener(self)  # repro-lint: disable=R005 deployment-lifetime listener

    def on_invoke(self, event) -> None:
        slot = event.client_id.index // SLOT_STRIDE
        if 0 <= slot < len(self._histories):
            self._histories[slot].on_invoke(event)

    def on_return(self, event) -> None:
        slot = event.client_id.index // SLOT_STRIDE
        if 0 <= slot < len(self._histories):
            self._histories[slot].on_return(event)


class _RegisterView:
    """One register of the deployment, with the emulation interface the
    workload runner and checkers expect (kernel / object_map / history /
    add_writer / add_reader)."""

    def __init__(self, deployment, index: int, layout: OffsetLayout):
        self.deployment = deployment
        self.index = index
        self.layout = layout
        self.history = FilteredHistory(set())
        self._writers: "Dict[int, ClientId]" = {}
        self._next_reader = 0

    @property
    def kernel(self):
        return self.deployment.kernel

    @property
    def object_map(self):
        return self.deployment.object_map

    @property
    def system(self):
        return self.deployment.system

    def _add_client(self, offset: int, writer_index: "Optional[int]"):
        from repro.core.ws_register import WSRegisterClient

        client_id = slot_client_id(self.index, offset)
        protocol = WSRegisterClient(
            self.layout,
            self.object_map,
            writer_index=writer_index,
            initial_value=self.deployment.initial_value,
        )
        runtime = self.kernel.add_client(client_id, protocol)
        self.history.admit(client_id)
        return runtime

    def add_writer(self, writer_index: int):
        if writer_index in self._writers:
            raise InvalidConfig(
                f"writer {writer_index} already added to register"
                f" {self.index}"
            )
        runtime = self._add_client(writer_index, writer_index)
        self._writers[writer_index] = runtime.client_id
        return runtime

    def add_reader(self):
        offset = READER_BASE + self._next_reader
        self._next_reader += 1
        return self._add_client(offset, None)


class MultiRegisterDeployment:
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
        if m <= 0:
            raise InvalidConfig("need at least one register")
        self.m = m
        self.initial_value = initial_value
        placements, self.layouts = offset_layouts(m, k, n, f, initial_value)
        self.system: SimSystem = build_system(
            n, placements, scheduler=scheduler, environment=environment
        )
        self.registers = [
            _RegisterView(self, index, self.layouts[index])
            for index in range(m)
        ]
        SlotHistoryRouter(
            [view.history for view in self.registers]
        ).install(self.kernel)

    @property
    def kernel(self):
        return self.system.kernel

    @property
    def object_map(self):
        return self.system.object_map

    def register(self, index: int) -> _RegisterView:
        return self.registers[index]

    def crash_server(self, server_index: int) -> None:
        """One crash event: every register loses that server at once."""
        self.kernel.crash_server(ServerId(server_index))

    @property
    def total_registers(self) -> int:
        return self.object_map.n_objects

    def storage_profile(self):
        """Per-server storage summed over all m registers."""
        return self.object_map.storage_profile()
