"""One shard: the multi-slot fleet engine, built from a ``ShardConfig``.

A shard provisions ``capacity`` independent emulated registers ("slots")
over one fleet of ``n`` servers — one kernel, one schedule, one crash
event per server, with per-slot histories so every slot audits against
its own consistency condition, on any of the three Table 1 substrates.
All of that is :class:`~repro.core.multi.SlotFleet`; this module adds
what the KV service needs on top: construction from a
:class:`ShardConfig`, get-or-create ``writer`` / ``reader`` handles, the
run loop and the per-key space accounting.

Placements are a pure function of the config (:func:`shard_placements`),
so a replica process in another machine image rebuilds byte-identical
base objects from the same :class:`ShardConfig` — the static-placement
contract remote serving depends on.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.apps.shard.config import ShardConfig
from repro.core.multi import (
    READER_BASE,
    OffsetLayout,
    SlotFleet,
    slot_placements,
)
from repro.sim.client import ClientRuntime
from repro.sim.scheduling import RandomScheduler, Scheduler
from repro.sim.system import Placement


def shard_placements(
    config: ShardConfig,
) -> "Tuple[List[Placement], Optional[List[OffsetLayout]]]":
    """Deterministic base-object placements for one shard (see
    :func:`~repro.core.multi.slot_placements`)."""
    return slot_placements(
        config.substrate, config.capacity, config.k_writers, config.n, config.f
    )


class ShardFleet(SlotFleet):
    """``capacity`` emulated registers over one fleet of ``n`` servers."""

    def __init__(
        self,
        config: ShardConfig,
        seed: int = 0,
        scheduler: "Optional[Scheduler]" = None,
        transport: Any = None,
    ):
        self.config = config
        super().__init__(
            config.substrate,
            config.capacity,
            config.k_writers,
            config.n,
            config.f,
            scheduler=scheduler or RandomScheduler(seed),
            transport=transport,
        )

    @property
    def transport(self):
        return self.kernel.transport

    # -- per-slot clients -----------------------------------------------------

    def writer(self, slot_index: int, writer_index: int) -> ClientRuntime:
        """The slot's writer client ``writer_index``, one of the
        ``k_writers`` provisioned.  The *caller* (the service's session
        layer) raises :class:`~repro.errors.WriterBoundExceeded` on
        violations; this layer asserts the invariant.
        """
        assert 0 <= writer_index < self.config.k_writers
        return self.client(slot_index, writer_index, writer_index)

    def reader(self, slot_index: int, reader_index: int = 0) -> ClientRuntime:
        """The slot's reader client ``reader_index``."""
        return self.client(slot_index, READER_BASE + reader_index, None)

    # -- running ------------------------------------------------------------

    def run_to_quiescence(self, max_steps: int = 200_000):
        return self.system.run_to_quiescence(max_steps=max_steps)

    # -- auditing ------------------------------------------------------------

    def audit_slot(self, slot_index: int) -> bool:
        """Check the slot's history against its substrate's condition."""
        return self.slots[slot_index].audit()

    @property
    def objects_per_slot(self) -> int:
        """Base objects behind one key: every slot has the same layout."""
        return self.total_objects // self.config.capacity
