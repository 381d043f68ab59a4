"""One shard fleet: slot-routed histories and cost independent of the
idle client population.

A fleet hosts hundreds of mostly idle clients and slots on one kernel
(Table 1 prices every emulated register separately), so neither
recording a high-level event nor asking "is the fleet quiescent?" may
visit them all.
"""

import time

import pytest

from repro.apps.shard import ShardConfig
from repro.core.multi import (
    READER_BASE,
    SLOT_STRIDE,
    MultiRegisterDeployment,
    SlotFleet,
    SlotHistoryRouter,
    slot_client_id,
)
from repro.sim.events import InvokeEvent, ReturnEvent
from repro.sim.history import History
from repro.sim.ids import ClientId
from repro.sim.scheduling import RandomScheduler


def _fleet(capacity, substrate="max-register", seed=5):
    """The fleet ``ShardedKVService`` builds for one shard."""
    shard = ShardConfig(substrate=substrate, n=3, f=1, capacity=capacity)
    return SlotFleet(
        shard.substrate,
        shard.capacity,
        shard.k_writers,
        shard.n,
        shard.f,
        scheduler=RandomScheduler(seed),
    )


class _AdmittedHistory(History):
    """A history that records only the operations of the clients
    admitted to it."""

    def __init__(self):
        super().__init__()
        self.client_ids = set()

    def on_invoke(self, event) -> None:
        if event.client_id in self.client_ids:
            super().on_invoke(event)

    def on_return(self, event) -> None:
        if event.seq in self.ops:
            super().on_return(event)


class TestSlotRouting:
    @pytest.mark.parametrize("substrate", ["max-register", "cas", "register"])
    def test_routed_histories_equal_per_slot_listeners(self, substrate):
        fleet = _fleet(3, substrate, seed=11)
        # The recording scheme the router replaced: one filtered history
        # per slot, each subscribed to the kernel and offered every event.
        per_slot = [_AdmittedHistory() for _ in range(3)]
        for history in per_slot:
            fleet.kernel.add_listener(history)
        everything = History()  # every invocation, whatever its slot
        fleet.kernel.add_listener(everything)
        clients = []
        for slot in range(3):
            for writer in range(2):
                clients.append((slot, fleet.writer(slot, writer)))
            for reader in range(2):
                clients.append((slot, fleet.reader(slot, reader)))
        for slot, runtime in clients:
            per_slot[slot].client_ids.add(runtime.client_id)
        value = 0
        for _ in range(3):  # concurrent rounds across all three slots
            for slot, runtime in clients:
                if runtime.client_id.index % SLOT_STRIDE < READER_BASE:
                    value += 1
                    runtime.enqueue("write", f"s{slot}-v{value}")
                else:
                    runtime.enqueue("read")
            assert fleet.run_to_quiescence().satisfied
        for slot in range(3):
            routed = fleet.slots[slot].history.to_dicts()
            assert len(routed) == 12
            assert routed == per_slot[slot].to_dicts()
            assert fleet.slots[slot].audit()
        # Every operation landed in exactly one slot.
        assert sum(len(s.history) for s in fleet.slots) == len(everything)

    def test_one_listener_however_many_slots(self):
        small, large = _fleet(2), _fleet(64)
        assert len(large.kernel.listeners) == len(small.kernel.listeners)
        deployment = MultiRegisterDeployment(m=9, k=1, n=3, f=1)
        assert len(deployment.kernel.listeners) == len(small.kernel.listeners)

    def test_unowned_and_unadmitted_clients_are_dropped(self):
        histories = [History() for _ in range(3)]
        router = SlotHistoryRouter(histories)
        owned = slot_client_id(1, 4)

        def invoke(seq, client_id):
            router.on_invoke(InvokeEvent(seq, client_id, seq, "write", (seq,)))
            router.on_return(ReturnEvent(seq + 1, client_id, seq, "write", "ack"))

        invoke(0, owned)
        invoke(2, slot_client_id(3, 0))  # past the last slot
        invoke(3, ClientId(-1))  # below the first
        assert [len(h) for h in histories] == [0, 1, 0]
        [op] = histories[1].all_ops()
        assert op.client_id == owned and op.complete

    def test_multi_register_views_share_the_partitioning(self):
        deployment = MultiRegisterDeployment(
            m=3, k=2, n=5, f=2, scheduler=RandomScheduler(4)
        )
        for index in range(3):
            view = deployment.register(index)
            writer, reader = view.add_writer(1), view.add_reader()
            assert writer.client_id == slot_client_id(index, 1)
            assert reader.client_id == slot_client_id(index, READER_BASE)
            writer.enqueue("write", f"r{index}")
            reader.enqueue("read")
        assert deployment.system.run_to_quiescence().satisfied
        for index in range(3):
            ops = deployment.register(index).history.all_ops()
            assert sorted(op.name for op in ops) == ["read", "write"]
            [write] = deployment.register(index).history.writes
            assert write.args == (f"r{index}",)


class _Tripwire:
    """Stands in for an idle client runtime: any use of it is a scan."""

    def __getattr__(self, name):
        raise AssertionError(f"idle client touched: .{name}")


def _populate(fleet, per_slot):
    for slot in range(len(fleet.slots)):
        for reader in range(per_slot):
            fleet.reader(slot, reader)


def _seconds_per_step(fleet, puts=60):
    writer = fleet.writer(0, 0)
    best = float("inf")
    for repeat in range(5):
        start, steps = time.perf_counter(), 0
        for index in range(puts):
            writer.enqueue("write", f"v{repeat}-{index}")
            steps += fleet.run_to_quiescence().steps
        best = min(best, (time.perf_counter() - start) / steps)
    return best


class TestIdlePopulation:
    def test_a_put_touches_no_idle_client(self):
        fleet = _fleet(250)
        _populate(fleet, 8)  # 2,000 registered, idle readers
        writer = fleet.writer(0, 0)
        kernel = fleet.kernel
        assert len(kernel.clients) == 2_001
        for client_id in kernel.clients:
            if client_id != writer.client_id:
                kernel.clients[client_id] = _Tripwire()
        writer.enqueue("write", "v1")
        result = fleet.run_to_quiescence()
        assert result.satisfied and result.steps > 0
        [op] = fleet.slots[0].history.all_ops()
        assert op.complete and op.args == ("v1",)
        assert all(len(slot.history) == 0 for slot in fleet.slots[1:])

    def test_step_cost_does_not_grow_with_idle_clients(self):
        """250 slots and 2,000 idle readers against one slot and none.
        Generous on purpose (a timing ratio on a shared host): it is
        about 1.0, and was 29 with a client scan and 250 slot listeners
        on every step."""
        crowded = _fleet(250)
        _populate(crowded, 8)
        alone = _seconds_per_step(_fleet(1))
        assert _seconds_per_step(crowded) <= 3 * alone
