"""Tests for the kernel: enabled steps, steps, vetoes, crashes."""

import pytest

from tests.conftest import ToyProtocol

from repro.sim.ids import ClientId, ObjectId, OpId, ServerId
from repro.sim.kernel import Environment
from repro.sim.objects import OpKind
from repro.sim.scheduling import RandomScheduler, RoundRobinScheduler
from repro.sim.system import build_system


def _system(seed=0, n_servers=1, placements=None):
    placements = placements or [(0, "register", None)]
    return build_system(n_servers, placements, scheduler=RandomScheduler(seed))


class TestBasicExecution:
    def test_write_read_roundtrip(self):
        system = _system()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 7)
        client.enqueue("read")
        result = system.run_to_quiescence()
        assert result.satisfied
        assert system.history.reads[0].result == 7

    def test_time_advances_one_per_action(self):
        system = _system()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        before = system.kernel.time
        system.run_to_quiescence()
        assert system.kernel.time > before

    def test_quiescent_when_nothing_to_do(self):
        system = _system()
        system.add_client(ClientId(0), ToyProtocol())
        result = system.kernel.run(max_steps=10)
        assert result.reason == "quiescent"

    def test_max_steps_reached(self):
        system = _system()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        result = system.kernel.run(max_steps=1)
        assert result.reason == "max_steps"


class TestEnabledActions:
    def test_pending_op_enables_respond(self):
        system = _system()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 3)
        # One client step: invoke + trigger.
        system.kernel.force_client_step(ClientId(0))
        _, responds = system.kernel.enabled_steps()
        assert len(responds) == 1

    def test_actions_deterministically_ordered(self):
        system = _system()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 3)
        system.kernel.force_client_step(ClientId(0))
        assert system.kernel.enabled_steps() == system.kernel.enabled_steps()


class TestEnvironmentVeto:
    class BlockAllWrites(Environment):
        def allows(self, op, kernel):
            return not op.is_mutator

    def test_vetoed_write_blocks_run(self):
        system = _system()
        system.kernel.environment = self.BlockAllWrites()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 3)
        result = system.kernel.run(max_steps=100)
        assert result.reason == "blocked"
        # The write is still pending (covering).
        assert len(system.kernel.pending) == 1

    def test_veto_lifted_allows_completion(self):
        system = _system()
        system.kernel.environment = self.BlockAllWrites()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 3)
        system.kernel.run(max_steps=100)
        system.kernel.environment = Environment()
        result = system.run_to_quiescence()
        assert result.satisfied
        assert system.object_map.object(ObjectId(0)).value == 3


class TestCrashes:
    def test_crashed_server_ops_never_respond(self):
        system = _system()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 3)
        system.kernel.force_client_step(ClientId(0))
        system.kernel.crash_server(ServerId(0))
        result = system.kernel.run(max_steps=100)
        # The pending respond is not enabled; the client waits forever.
        assert result.reason == "quiescent"
        assert len(system.kernel.pending) == 1

    def test_crashed_client_takes_no_steps(self):
        system = _system()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 3)
        system.kernel.crash_client(ClientId(0))
        result = system.kernel.run(max_steps=100)
        assert result.reason == "quiescent"
        assert not system.history.complete_ops

    def test_pending_write_of_crashed_client_still_takes_effect(self):
        """The model allows a crashed client's covering write to land."""
        system = _system()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 3)
        system.kernel.force_client_step(ClientId(0))  # trigger the write
        system.kernel.crash_client(ClientId(0))
        result = system.kernel.run(max_steps=100)
        assert result.reason == "quiescent"
        assert system.object_map.object(ObjectId(0)).value == 3


class TestForcedActions:
    def test_force_respond_specific_op(self):
        system = _system()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 9)
        system.kernel.force_client_step(ClientId(0))
        (op_id,) = list(system.kernel.pending)
        system.kernel.force_respond(op_id)
        assert system.object_map.object(ObjectId(0)).value == 9

    def test_force_respond_non_pending_raises(self):
        system = _system()
        with pytest.raises(ValueError):
            system.kernel.force_respond(OpId(99))

    def test_duplicate_client_rejected(self):
        system = _system()
        system.add_client(ClientId(0), ToyProtocol())
        with pytest.raises(ValueError):
            system.kernel.add_client(ClientId(0), ToyProtocol())
