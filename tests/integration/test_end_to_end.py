"""End-to-end integration scenarios across the whole stack."""

import pytest

from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.ws import check_ws_regular, check_ws_safe
from repro.core.lemma1 import Lemma1Runner
from repro.core.ws_register import WSRegisterEmulation
from repro.sim.failures import CrashPlan
from repro.sim.ids import ServerId
from repro.sim.kernel import Environment
from repro.sim.scheduling import RandomScheduler
from repro.workloads.generators import write_sequential_workload
from repro.workloads.runner import run_workload

from tests.conftest import one_shard_service


class TestFigure1Configuration:
    """The paper's own example dimensions, end to end: k=5, n=6, f=2."""

    def test_full_workload_under_crashes(self):
        emu = WSRegisterEmulation(
            k=5, n=6, f=2, scheduler=RandomScheduler(11)
        )
        plan = CrashPlan()
        plan.crash_server_at(200, ServerId(2))
        plan.crash_server_at(600, ServerId(5))
        plan.install(emu.kernel)
        workload = write_sequential_workload(
            k=5, writes_per_writer=2, reads_between=1, n_readers=2
        )
        report = run_workload(emu, workload)
        assert report.completed_rounds == len(workload.rounds)
        assert check_ws_regular(report.history, cross_check=True) == []
        assert check_ws_safe(report.history) == []
        assert report.resource_consumption == 25  # Figure 1's register count


class TestAdversaryThenRecovery:
    """After the lower-bound adversary stops, the emulation recovers:
    covering writes drain (possibly reverting registers), retriggered
    writes repair them, and reads remain WS-Regular."""

    def test_reads_correct_after_adversary(self):
        k, n, f = 3, 5, 2

        def factory(scheduler):
            return WSRegisterEmulation(k=k, n=n, f=f, scheduler=scheduler)

        runner = Lemma1Runner(factory, k=k, f=f)
        runner.run()
        emu = runner.emulation
        # Lift the adversary: everything pending may now respond.
        emu.kernel.environment = Environment()
        drained = emu.kernel.run(max_steps=500_000)
        assert drained.reason == "quiescent"
        reader = emu.add_reader()
        reader.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        # The last adversary-phase write was v3; reads must observe it.
        assert emu.history.reads[-1].result == "v3"
        assert check_ws_regular(emu.history, cross_check=True) == []

    def test_writers_can_continue_after_adversary(self):
        k, n, f = 2, 5, 2

        def factory(scheduler):
            return WSRegisterEmulation(k=k, n=n, f=f, scheduler=scheduler)

        runner = Lemma1Runner(factory, k=k, f=f)
        runner.run()
        emu = runner.emulation
        emu.kernel.environment = Environment()
        emu.kernel.run(max_steps=500_000)
        # Writer 0 (client c0 from phase 1) writes again normally.
        writer = emu.kernel.client(emu.writer_client_id(0))
        writer.enqueue("write", "after-adversary")
        assert emu.system.run_to_quiescence().satisfied
        reader = emu.add_reader()
        reader.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        assert emu.history.reads[-1].result == "after-adversary"
        assert check_ws_regular(emu.history, cross_check=True) == []


@pytest.mark.parametrize("substrate", ["register", "max-register", "cas"])
class TestKVSoak:
    def test_many_keys_many_crashes(self, substrate):
        store = one_shard_service(substrate, k_writers=3, seed=5)
        reads = store.session(writer=None)
        for index in range(6):
            store.session(writer=index % 3).put(f"key{index}", index * 10)
        store.crash_server(1)
        for index in range(6):
            assert reads.get(f"key{index}") == index * 10
        store.crash_server(3)
        for index in range(6):
            store.session(writer=(index + 1) % 3).put(f"key{index}", index * 10 + 1)
            assert reads.get(f"key{index}") == index * 10 + 1
        assert all(store.audit().values())
