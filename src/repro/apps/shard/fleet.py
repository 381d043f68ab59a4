"""One shard: a multi-slot register fleet on a single kernel.

A shard provisions ``capacity`` independent emulated registers ("slots")
over one fleet of ``n`` servers — one kernel, one schedule, one crash
event per server, with per-slot histories so every slot audits against
its own consistency condition, on any of the three Table 1 substrates
(the register one lays its slots out as
:class:`~repro.core.multi.MultiRegisterDeployment` does, through the same
:func:`~repro.core.multi.offset_layouts`):

* ``register`` — each slot is an Algorithm 2 layout shifted into the
  shared object-id space (``kf + ceil(k/z)(f+1)`` registers per slot,
  ``k_writers`` bound);
* ``max-register`` — each slot is an ABD instance over ``n``
  max-registers, one per server (2f+1 at the minimum, writers
  unbounded);
* ``cas`` — ABD whose per-server max-register is Algorithm 1 over a
  single CAS object.

Placements are a pure function of the config (:func:`shard_placements`),
so a replica process in another machine image rebuilds byte-identical
base objects from the same :class:`ShardConfig` — the static-placement
contract remote serving depends on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.apps.shard.config import ShardConfig
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.ws import check_ws_regular
from repro.core.multi import (
    READER_BASE,
    SLOT_STRIDE,
    FilteredHistory,
    OffsetLayout,
    SlotHistoryRouter,
    offset_layouts,
    slot_client_id,
)
from repro.errors import BoundViolation
from repro.sim.client import ClientRuntime
from repro.sim.ids import ObjectId, ServerId
from repro.sim.scheduling import RandomScheduler, Scheduler
from repro.sim.system import Placement, SimSystem, build_system
from repro.sim.values import bottom_tsval


def shard_placements(
    config: ShardConfig,
) -> "Tuple[List[Placement], Optional[List[OffsetLayout]]]":
    """Deterministic base-object placements for one shard.

    Returns ``(placements, layouts)``; ``layouts`` is the per-slot
    :class:`OffsetLayout` list for the register substrate (``None`` for
    the quorum substrates, whose slot ``s`` simply owns object
    ``s*n + i`` on server ``i``).
    """
    if config.substrate == "register":
        return offset_layouts(
            config.capacity, config.k_writers, config.n, config.f
        )
    type_name = "max-register" if config.substrate == "max-register" else "cas"
    v0 = bottom_tsval(None)
    placements = [
        (server_index, type_name, v0)
        for _ in range(config.capacity)
        for server_index in range(config.n)
    ]
    return placements, None


class _Slot:
    """Bookkeeping for one register slot of the shard."""

    __slots__ = ("index", "history", "clients")

    def __init__(self, index: int):
        self.index = index
        self.history = FilteredHistory(())
        #: by offset in the slot's id range (readers from READER_BASE)
        self.clients: "Dict[int, ClientRuntime]" = {}


class ShardFleet:
    """``capacity`` emulated registers over one fleet of ``n`` servers."""

    def __init__(
        self,
        config: ShardConfig,
        seed: int = 0,
        scheduler: "Optional[Scheduler]" = None,
        transport: Any = None,
    ):
        self.config = config
        placements, layouts = shard_placements(config)
        self.layouts = layouts
        self.system: SimSystem = build_system(
            config.n,
            placements,
            scheduler=scheduler or RandomScheduler(seed),
            transport=transport,
        )
        self.slots = [_Slot(index) for index in range(config.capacity)]
        SlotHistoryRouter([slot.history for slot in self.slots]).install(
            self.kernel
        )

    @property
    def kernel(self):
        return self.system.kernel

    @property
    def object_map(self):
        return self.system.object_map

    @property
    def transport(self):
        return self.kernel.transport

    # -- per-slot clients -----------------------------------------------------

    def _slot_objects(self, slot_index: int) -> "List[ObjectId]":
        n = self.config.n
        return [ObjectId(slot_index * n + i) for i in range(n)]

    def _make_protocol(self, slot_index: int, writer_index: "Optional[int]"):
        cfg = self.config
        if cfg.substrate == "register":
            from repro.core.ws_register import WSRegisterClient

            return WSRegisterClient(
                self.layouts[slot_index],
                self.object_map,
                writer_index=writer_index,
                initial_value=None,
            )
        client_tag = slot_index * SLOT_STRIDE + (
            writer_index if writer_index is not None else READER_BASE
        )
        if cfg.substrate == "max-register":
            from repro.core.abd import ABDClient as client_class
        else:
            from repro.core.cas_maxreg import CASABDClient as client_class
        return client_class(
            cfg.n,
            cfg.f,
            writer_id=client_tag,
            object_ids=self._slot_objects(slot_index),
        )

    def _client(
        self, slot_index: int, offset: int, writer_index: "Optional[int]"
    ) -> ClientRuntime:
        """The slot's client at ``offset`` of its id range, created on
        first use (a reader when ``writer_index`` is None)."""
        slot = self.slots[slot_index]
        runtime = slot.clients.get(offset)
        if runtime is None:
            client_id = slot_client_id(slot_index, offset)
            protocol = self._make_protocol(slot_index, writer_index)
            runtime = self.kernel.add_client(client_id, protocol)
            slot.history.admit(client_id)
            slot.clients[offset] = runtime
        return runtime

    def writer(self, slot_index: int, writer_index: int) -> ClientRuntime:
        """The slot's writer client ``writer_index``, one of the
        ``k_writers`` provisioned.  The *caller* (the service's session
        layer) raises :class:`~repro.errors.WriterBoundExceeded` on
        violations; this layer asserts the invariant.
        """
        assert 0 <= writer_index < self.config.k_writers
        return self._client(slot_index, writer_index, writer_index)

    def reader(self, slot_index: int, reader_index: int = 0) -> ClientRuntime:
        """The slot's reader client ``reader_index``."""
        return self._client(slot_index, READER_BASE + reader_index, None)

    # -- running ------------------------------------------------------------

    def run_to_quiescence(self, max_steps: int = 200_000):
        return self.system.run_to_quiescence(max_steps=max_steps)

    def crash_server(self, server_index: int) -> None:
        """One crash event: every slot loses that server at once."""
        if not 0 <= server_index < self.config.n:
            raise BoundViolation(
                f"server index {server_index} out of range"
                f" [0, {self.config.n})"
            )
        self.kernel.crash_server(ServerId(server_index))

    # -- auditing ------------------------------------------------------------

    def audit_slot(self, slot_index: int) -> bool:
        """Check the slot's history against its substrate's condition."""
        history = self.slots[slot_index].history
        if self.config.substrate == "register":
            return not check_ws_regular(history)
        return is_register_history_atomic(history)

    @property
    def total_objects(self) -> int:
        """Base objects this shard consumes (Table 1, summed over slots)."""
        return self.object_map.n_objects

    @property
    def objects_per_slot(self) -> int:
        """Base objects behind one key: every slot has the same layout."""
        return self.total_objects // self.config.capacity

    def storage_profile(self):
        """Per-server base-object counts (Theorem 7's capacity view)."""
        return self.object_map.storage_profile()
