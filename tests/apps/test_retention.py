"""Bounded state per run: the KV service's kernel forgets finished ops.

A KV shard's ``SlotFleet`` (and so ``ShardedKVService``) does not
record its op log: once the network is drained, the only ``LowLevelOp``
objects left alive are the kernel's pending ones, on every transport,
however long the run.  The op ids stay the dense trigger count.  A ``Deployment`` is
an analysis object: it keeps each base object's ops only while the
object has at most ``RECORDED_OPS_PER_OBJECT`` of them, which is all the
substrate audit reads, so its live ops are bounded too.
"""

import gc
from types import SimpleNamespace

import pytest

from repro.analysis.baseobject_audit import MAX_AUDITED_OPS, audit_base_objects
from repro.apps.shard import ShardedKVService, ShardServiceConfig
from repro.core.emulation import EmulationSpec
from repro.core.ws_register import WSRegisterEmulation
from repro.errors import ModelViolation
from repro.net.asyncio_transport import AsyncioTransport
from repro.net.faults import (
    Delay,
    Drop,
    Duplicate,
    FaultPlan,
    LinkFaults,
    Partition,
    Reorder,
)
from repro.net.lossy import LossyTransport
from repro.sim.events import EventListener
from repro.sim.forking import fork_kernel
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.kernel import RECORDED_OPS_PER_OBJECT
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.scheduling import RandomScheduler
from repro.verify import verify_run

KV_OPS = 2400
KEYS = 16


class _TriggerCount(EventListener):
    def __init__(self):
        self.count = 0

    def on_trigger(self, event):
        self.count += 1


def _transport(kind):
    if kind == "inproc":
        return None
    if kind == "lossy":
        weather = dict(
            delay=Delay(0, 4),
            reorder=Reorder(0.3, window=10),
            duplicate=Duplicate(0.1),
        )
        plan = FaultPlan(
            default=LinkFaults(**weather),
            per_server=((1, LinkFaults(drop=Drop(0.2), **weather)),),
            partitions=(Partition(2_000, 6_000, (3,)),),
        )
        return LossyTransport(plan, seed=3)
    return AsyncioTransport(idle_timeout=1.0)


def _service(kind):
    config = ShardServiceConfig.make(
        shards=1, substrate="max-register", n=4, f=1, capacity=KEYS, seed=5
    )
    transport = _transport(kind)
    return ShardedKVService(
        config, transports=None if transport is None else [transport]
    )


def _live_lowlevel_ops():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is LowLevelOp)


@pytest.mark.parametrize("kind", ["inproc", "lossy", "asyncio"])
def test_a_kv_fleet_keeps_only_its_pending_ops(kind):
    service = _service(kind)
    try:
        (fleet,) = service.fleets
        kernel = fleet.kernel
        triggers = _TriggerCount()
        kernel.add_listener(triggers)
        with service.session(writer=0) as session:
            for i in range(KV_OPS):
                key = f"key-{i % KEYS}"
                if i % 3:
                    session.get(key)
                else:
                    session.put(key, i)
        # Drain the network too: a response leg still in flight holds
        # its (finished) op until it is delivered.
        assert kernel.run(max_steps=200_000).reason == "quiescent"
        assert not kernel.ops.recording
        assert len(kernel.ops) == triggers.count > 4 * KV_OPS
        assert _live_lowlevel_ops() <= len(kernel.pending)
        if kind == "lossy":
            stats = kernel.transport.stats()
            assert stats["in_flight"] == 0
            assert stats["held_by_partition"] > 0
            assert stats["duplicate_requests"] > 0
            assert len(kernel.pending) > 0  # dropped requests stay covering
        assert all(service.audit().values())
    finally:
        service.close()


def test_a_deployment_keeps_each_objects_ops_only_up_to_the_limit():
    emulation = WSRegisterEmulation(5, 6, 2, scheduler=RandomScheduler(9))
    kernel = emulation.kernel
    writers = [emulation.add_writer(index) for index in range(5)]
    readers = [emulation.add_reader() for _ in range(2)]
    objects = kernel.object_map.object_ids
    for round_index in range(600):
        for writer in writers:
            writer.enqueue("write", (round_index, writer.client_id.index))
        for reader in readers:
            reader.enqueue("read")
        assert emulation.system.run_to_quiescence().satisfied
        if all(kernel.ops.projection(oid) is None for oid in objects):
            break
    else:
        pytest.fail("some register never passed the limit")
    assert len(kernel.ops) > 2 * len(objects) * RECORDED_OPS_PER_OBJECT
    assert _live_lowlevel_ops() <= (
        len(objects) * RECORDED_OPS_PER_OBJECT + len(kernel.pending)
    )
    report = verify_run(emulation)
    assert report.ok, report.details()
    assert (
        f"(0 checked, {len(objects)} over the {MAX_AUDITED_OPS}-op cap)"
        in report.details()
    )
    with pytest.raises(ModelViolation, match=r"cannot audit b\d+"):
        audit_base_objects(kernel, max_ops_per_object=None)
    with pytest.raises(ModelViolation, match="dropped the ops of"):
        list(kernel.ops)


def test_a_deployment_records_every_op_and_so_does_its_fork():
    emulation = EmulationSpec.make("abd", n=3, f=1, seed=4).build()
    kernel = emulation.kernel
    triggers = _TriggerCount()
    kernel.add_listener(triggers)
    writer, reader = emulation.add_writer(0), emulation.add_reader()
    for value in range(50):
        writer.enqueue("write", value)
        reader.enqueue("read")
    assert emulation.system.run_to_quiescence().satisfied
    count = len(kernel.ops)
    assert count == triggers.count > 0
    assert list(kernel.ops) == [OpId(index) for index in range(count)]
    assert all(kernel.ops[op_id].op_id == op_id for op_id in kernel.ops)

    fork = fork_kernel(kernel)
    assert fork.ops.recording
    op = fork.trigger(ClientId(0), ObjectId(0), OpKind.READ_MAX, (), None)
    assert op.op_id == OpId(count)
    assert fork.ops[op.op_id] is op and len(fork.ops) == count + 1
    assert len(kernel.ops) == count


class TestNoVacuousSubstrateAudit:
    """An audit over a log that kept nothing must not pass."""

    def _fleet_after_a_run(self):
        service = _service("inproc")
        with service.session(writer=0) as session:
            session.put("key-0", 1)
            assert session.get("key-0") == 1
        (fleet,) = service.fleets
        return fleet

    def test_audit_base_objects_refuses_an_unrecorded_kernel(self):
        fleet = self._fleet_after_a_run()
        with pytest.raises(ModelViolation, match="does not record"):
            audit_base_objects(fleet.kernel)

    def test_verify_run_refuses_an_unrecorded_kernel(self):
        fleet = self._fleet_after_a_run()
        (slot,) = [slot for slot in fleet.slots if slot.history.ops]
        run = SimpleNamespace(history=slot.history, kernel=fleet.kernel)
        with pytest.raises(ModelViolation, match="does not record"):
            verify_run(run, condition="atomic")
        assert verify_run(run, condition="atomic", audit_substrate=False).ok
