"""Tests for resource / contention / step meters."""

from tests.conftest import ToyProtocol

from repro.analysis.resources import (
    PointContentionMeter,
    ResourceMeter,
    StepMeter,
)
from repro.sim.ids import ClientId, ObjectId
from repro.sim.scheduling import RandomScheduler
from repro.sim.system import build_system


def _system(n_objects=3, seed=0):
    placements = [(0, "register", None) for _ in range(n_objects)]
    return build_system(1, placements, scheduler=RandomScheduler(seed))


class TestResourceMeter:
    def test_counts_distinct_objects_used(self):
        system = _system(3)
        meter = ResourceMeter()
        system.kernel.add_listener(meter)
        c0 = system.add_client(ClientId(0), ToyProtocol(ObjectId(0)))
        c1 = system.add_client(ClientId(1), ToyProtocol(ObjectId(1)))
        c0.enqueue("write", 1)
        c0.enqueue("write", 2)  # same object: still one
        c1.enqueue("write", 3)
        system.run_to_quiescence()
        assert meter.resource_consumption == 2

    def test_covered_now_tracks_pending_mutators(self):
        system = _system(1)
        meter = ResourceMeter()
        system.kernel.add_listener(meter)
        client = system.add_client(ClientId(0), ToyProtocol(ObjectId(0)))
        client.enqueue("write", 1)
        system.kernel.force_client_step(ClientId(0))
        assert meter.covered_now == 1
        (op_id,) = list(system.kernel.pending)
        system.kernel.force_respond(op_id)
        assert meter.covered_now == 0
        assert meter.max_covered == 1


class TestPointContentionMeter:
    def test_sequential_ops_contention_one(self):
        system = _system(1)
        meter = PointContentionMeter()
        system.kernel.add_listener(meter)
        client = system.add_client(ClientId(0), ToyProtocol(ObjectId(0)))
        for i in range(3):
            client.enqueue("write", i)
        system.run_to_quiescence()
        assert meter.run_point_contention == 1

    def test_concurrent_ops_counted(self):
        system = _system(2)
        meter = PointContentionMeter()
        system.kernel.add_listener(meter)
        a = system.add_client(ClientId(0), ToyProtocol(ObjectId(0)))
        b = system.add_client(ClientId(1), ToyProtocol(ObjectId(1)))
        a.enqueue("write", 1)
        b.enqueue("write", 2)
        system.run_to_quiescence()
        assert meter.run_point_contention == 2


class TestStepMeter:
    def test_triggers_attributed_to_ops(self):
        system = _system(1)
        meter = StepMeter()
        system.kernel.add_listener(meter)
        client = system.add_client(ClientId(0), ToyProtocol(ObjectId(0)))
        client.enqueue("write", 1)
        client.enqueue("read")
        system.run_to_quiescence()
        assert meter.triggers_per_op == {0: 1, 1: 1}

    def test_durations_positive(self):
        system = _system(1)
        meter = StepMeter()
        system.kernel.add_listener(meter)
        client = system.add_client(ClientId(0), ToyProtocol(ObjectId(0)))
        client.enqueue("write", 1)
        system.run_to_quiescence()
        assert meter.mean_duration() > 0

    def test_empty_meters(self):
        meter = StepMeter()
        assert meter.mean_triggers() == 0.0
        assert meter.mean_duration() == 0.0
