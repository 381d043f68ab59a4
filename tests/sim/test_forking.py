"""Tests for run forking (branching futures from one prefix)."""

import pytest

from tests.conftest import ToyProtocol

from repro.core.lemma1 import Lemma1Runner
from repro.core.ws_register import WSRegisterEmulation
from repro.sim.forking import ForkError, assert_forkable, fork_kernel
from repro.sim.ids import ClientId, ObjectId, ServerId
from repro.sim.kernel import Environment
from repro.sim.scheduling import RandomScheduler
from repro.sim.system import build_system


class TestForkability:
    def test_idle_kernel_forkable(self):
        system = build_system(1, [(0, "register", None)])
        assert_forkable(system.kernel)

    def test_inflight_operation_blocks_fork(self):
        system = build_system(1, [(0, "register", None)])
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        system.kernel.force_client_step(ClientId(0))  # now mid-operation
        with pytest.raises(ForkError):
            fork_kernel(system.kernel)


class TestIndependence:
    def test_forks_do_not_share_state(self):
        system = build_system(
            1, [(0, "register", 0)], scheduler=RandomScheduler(0)
        )
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        system.run_to_quiescence()
        fork = fork_kernel(system.kernel)
        # Advance only the fork.
        fork.clients[ClientId(0)].enqueue("write", 2)
        fork.run(max_steps=1_000)
        assert fork.object_map.object(ObjectId(0)).value == 2
        assert system.object_map.object(ObjectId(0)).value == 1

    def test_pending_covering_writes_fork(self):
        """The Figure 2 situation: fork a prefix that carries covering
        writes, then resolve them differently in each branch."""
        k, n, f = 1, 3, 1

        def factory(scheduler):
            return WSRegisterEmulation(k=k, n=n, f=f, scheduler=scheduler)

        runner = Lemma1Runner(factory, k=k, f=f)
        runner.run()  # one write, f covering writes pending
        kernel = runner.emulation.kernel
        pending_before = len(kernel.pending)
        assert pending_before >= f

        branch_a, branch_b = fork_kernel(kernel), fork_kernel(kernel)
        for branch in (branch_a, branch_b):
            branch.environment = Environment()  # lift the adversary

        # Branch A: the covering writes' servers crash; they never land.
        for op in list(branch_a.pending.values()):
            branch_a.crash_server(branch_a.object_map.server_of(op.object_id))
        branch_a.run(max_steps=10_000)
        assert len(branch_a.pending) == pending_before

        # Branch B: the covering writes respond (and retrigger/settle).
        branch_b.run(max_steps=10_000)
        assert not branch_b.pending

        # The original prefix is untouched either way.
        assert len(kernel.pending) == pending_before

    def test_branches_diverge_with_different_operations(self):
        emu = WSRegisterEmulation(k=2, n=5, f=2, scheduler=RandomScheduler(1))
        writer0 = emu.add_writer(0)
        writer1 = emu.add_writer(1)
        reader = emu.add_reader()
        writer0.enqueue("write", "base")
        assert emu.system.run_to_quiescence().satisfied

        branch_a, branch_b = fork_kernel(emu.kernel), fork_kernel(emu.kernel)
        # Branch A: read immediately.
        reader_a = branch_a.clients[reader.client_id]
        reader_a.enqueue("read")
        branch_a.run(max_steps=100_000)
        # Branch B: another write, then read.
        branch_b.clients[writer1.client_id].enqueue("write", "branched")
        branch_b.run(max_steps=100_000)
        branch_b.clients[reader.client_id].enqueue("read")
        branch_b.run(max_steps=100_000)

        def last_read(kernel):
            history = [
                listener
                for listener in kernel.listeners
                if hasattr(listener, "reads")
            ][0]
            return history.reads[-1].result

        assert last_read(branch_a) == "base"
        assert last_read(branch_b) == "branched"


class TestForkedOpsKnowTheirClient:
    """Each pending op carries the runtime that triggered it
    (``op.runtime``); a fork's copies must point at the fork's runtimes,
    or a respond in the fork would run the origin's protocol."""

    def test_a_respond_in_a_fork_reaches_the_forks_runtime(self):
        k, n, f = 1, 3, 1

        def factory(scheduler):
            return WSRegisterEmulation(k=k, n=n, f=f, scheduler=scheduler)

        runner = Lemma1Runner(factory, k=k, f=f)
        runner.run()  # one write, f covering writes pending
        kernel = runner.emulation.kernel
        ready = [op for op in kernel.pending.values() if op.ready]
        assert ready
        writer = ready[0].runtime
        assert writer is kernel.clients[ready[0].client_id]

        def state(runtime):
            protocol = runtime.protocol
            return (
                set(runtime.pending_ops),
                set(protocol.cover_set),
                set(protocol.wr_set),
                protocol.ts_val,
            )

        before = state(writer)
        fork = fork_kernel(kernel)
        for op in fork.pending.values():
            assert op.runtime is fork.clients[op.client_id]
            assert op.runtime is not kernel.clients[op.client_id]
        forked_writer = fork.clients[writer.client_id]
        for op in ready:
            fork.force_respond(op.op_id)
            assert op.op_id not in forked_writer.pending_ops
        assert state(forked_writer) != before
        # The origin's pending ops and quorum state are untouched.
        assert state(writer) == before
        assert [op.op_id for op in ready] == [
            op.op_id for op in kernel.pending.values() if op.ready
        ]
