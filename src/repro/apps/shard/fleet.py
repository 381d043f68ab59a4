"""One shard: a multi-slot register fleet on a single kernel.

A shard provisions ``capacity`` independent emulated registers ("slots")
over one fleet of ``n`` servers — one kernel, one schedule, one crash
event per server, with per-slot histories so every slot audits against
its own consistency condition.  The layout generalises
:class:`~repro.core.multi.MultiRegisterDeployment` (register substrate)
to all three Table 1 substrates:

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
from repro.core.layout import RegisterLayout
from repro.core.multi import (
    READER_BASE,
    SLOT_STRIDE,
    FilteredHistory,
    OffsetLayout,
    SlotHistoryRouter,
    slot_client_id,
)
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
        placements: "List[Placement]" = []
        layouts: "List[OffsetLayout]" = []
        offset = 0
        for _ in range(config.capacity):
            base = RegisterLayout(config.k_writers, config.n, config.f, None)
            base.validate()
            layouts.append(OffsetLayout(base, offset))
            placements.extend(base.placements())
            offset += base.total_registers
        return placements, layouts
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

    __slots__ = ("index", "history", "writers", "readers")

    def __init__(self, index: int):
        self.index = index
        self.history = FilteredHistory(())
        self.writers: "Dict[int, ClientRuntime]" = {}
        self.readers: "Dict[int, ClientRuntime]" = {}


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
            from repro.core.abd import ABDClient

            return ABDClient(
                cfg.n,
                cfg.f,
                writer_id=client_tag,
                object_ids=self._slot_objects(slot_index),
            )
        from repro.core.cas_maxreg import CASABDClient

        return CASABDClient(
            cfg.n,
            cfg.f,
            writer_id=client_tag,
            object_ids=self._slot_objects(slot_index),
        )

    def writer(self, slot_index: int, writer_index: int) -> ClientRuntime:
        """The slot's writer client ``writer_index`` (created lazily).

        For the register substrate ``writer_index`` must respect the
        provisioned ``k_writers`` bound — the *caller* (the service's
        session layer) is responsible for raising
        :class:`~repro.errors.WriterBoundExceeded` on violations; this
        layer asserts the invariant.
        """
        slot = self.slots[slot_index]
        runtime = slot.writers.get(writer_index)
        if runtime is None:
            if self.config.substrate == "register":
                assert 0 <= writer_index < self.config.k_writers
            client_id = slot_client_id(slot_index, writer_index)
            protocol = self._make_protocol(slot_index, writer_index)
            runtime = self.kernel.add_client(client_id, protocol)
            slot.history.admit(client_id)
            slot.writers[writer_index] = runtime
        return runtime

    def reader(self, slot_index: int, reader_index: int = 0) -> ClientRuntime:
        """The slot's reader client ``reader_index`` (created lazily)."""
        slot = self.slots[slot_index]
        runtime = slot.readers.get(reader_index)
        if runtime is None:
            client_id = slot_client_id(
                slot_index, READER_BASE + reader_index
            )
            protocol = self._make_protocol(slot_index, None)
            runtime = self.kernel.add_client(client_id, protocol)
            slot.history.admit(client_id)
            slot.readers[reader_index] = runtime
        return runtime

    # -- running ------------------------------------------------------------

    def run_to_quiescence(self, max_steps: int = 200_000):
        return self.system.run_to_quiescence(max_steps=max_steps)

    def crash_server(self, server_index: int) -> None:
        """One crash event: every slot loses that server at once."""
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

    def storage_profile(self):
        """Per-server base-object counts (Theorem 7's capacity view)."""
        return self.object_map.storage_profile()
