"""Tests for Algorithm 1 (max-register from one CAS) and ABD-over-CAS."""

import pytest

from tests.conftest import drive_concurrent, drive_sequential

from repro.consistency.linearizability import is_linearizable
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.specs import MaxRegisterSpec
from repro.core.cas_maxreg import CASABDEmulation, SingleCASMaxRegister
from repro.sim.failures import CrashPlan
from repro.sim.ids import ServerId
from repro.sim.scheduling import RandomScheduler


class TestSingleCASMaxRegister:
    def test_write_then_read(self):
        mreg = SingleCASMaxRegister(
            initial_value=0, scheduler=RandomScheduler(0)
        )
        a, b = mreg.add_client(), mreg.add_client()
        drive_sequential(
            mreg.system, [(a, "write_max", (5,)), (b, "read_max", ())]
        )
        assert mreg.history.all_ops()[-1].result == 5

    def test_monotone_under_interleaving(self):
        mreg = SingleCASMaxRegister(
            initial_value=0, scheduler=RandomScheduler(1)
        )
        a, b = mreg.add_client(), mreg.add_client()
        drive_sequential(
            mreg.system,
            [
                (a, "write_max", (5,)),
                (b, "write_max", (3,)),  # smaller: must not regress
                (a, "read_max", ()),
            ],
        )
        assert mreg.history.all_ops()[-1].result == 5

    @pytest.mark.parametrize("seed", range(10))
    def test_atomicity_under_concurrency(self, seed):
        """Theorem 4: Algorithm 1 emulates a wait-free atomic max-register."""
        mreg = SingleCASMaxRegister(
            initial_value=0, scheduler=RandomScheduler(seed)
        )
        clients = [mreg.add_client() for _ in range(3)]
        invocations = [
            (clients[0], "write_max", (4,)),
            (clients[1], "write_max", (7,)),
            (clients[2], "read_max", ()),
            (clients[0], "read_max", ()),
        ]
        drive_concurrent(mreg.system, invocations)
        assert is_linearizable(
            mreg.history.all_ops(), MaxRegisterSpec(0)
        )

    def test_wait_freedom_bounded_iterations(self):
        """write-max terminates; iterations bounded by intervening values."""
        mreg = SingleCASMaxRegister(
            initial_value=0, scheduler=RandomScheduler(2)
        )
        client = mreg.add_client()
        drive_sequential(
            mreg.system,
            [(client, "write_max", (i,)) for i in range(1, 6)],
        )
        # Uncontended: each write needs exactly one read + one CAS pass,
        # i.e. one loop iteration plus the confirming iteration.
        assert mreg.total_iterations <= 2 * 5

    def test_contended_writes_take_an_iteration_each(self):
        """Appendix B under contention: 16 writes by 4 interleaved
        clients take at least one loop iteration per write."""
        mreg = SingleCASMaxRegister(
            initial_value=0, scheduler=RandomScheduler(3)
        )
        clients = [mreg.add_client() for _ in range(4)]
        for index, client in enumerate(clients):
            for step in range(4):
                client.enqueue("write_max", 1 + index + 4 * step)
        assert mreg.system.run_to_quiescence(max_steps=2_000_000).satisfied
        assert mreg.total_iterations >= 16

    def test_read_max_single_cas(self):
        mreg = SingleCASMaxRegister(initial_value=0)
        client = mreg.add_client()
        drive_sequential(mreg.system, [(client, "read_max", ())])
        # read-max is one CAS(v0, v0): one trigger total.
        assert len(mreg.kernel.ops) == 1


class TestCASABD:
    def test_read_after_write(self):
        emu = CASABDEmulation(n=5, f=2, scheduler=RandomScheduler(0))
        a, b = emu.add_client(), emu.add_client()
        drive_sequential(
            emu.system, [(a, "write", ("x",)), (b, "read", ())]
        )
        assert emu.history.reads[0].result == "x"
        assert emu.total_objects == 5  # 2f+1 CAS objects

    @pytest.mark.parametrize("seed", range(5))
    def test_atomic_under_concurrency(self, seed):
        emu = CASABDEmulation(n=5, f=2, scheduler=RandomScheduler(seed))
        writers = [emu.add_client() for _ in range(2)]
        reader = emu.add_client()
        invocations = [
            (writers[0], "write", ("a",)),
            (writers[1], "write", ("b",)),
            (reader, "read", ()),
        ]
        drive_concurrent(emu.system, invocations)
        assert is_register_history_atomic(emu.history)

    def test_f_crashes_tolerated(self):
        emu = CASABDEmulation(n=5, f=2, scheduler=RandomScheduler(3))
        emu.kernel.crash_server(ServerId(1))
        emu.kernel.crash_server(ServerId(2))
        a, b = emu.add_client(), emu.add_client()
        drive_sequential(
            emu.system, [(a, "write", ("ok",)), (b, "read", ())]
        )
        assert emu.history.reads[0].result == "ok"

    def test_crash_mid_operation(self):
        emu = CASABDEmulation(n=5, f=2, scheduler=RandomScheduler(4))
        CrashPlan().crash_server_at(15, ServerId(0)).install(emu.kernel)
        a, b = emu.add_client(), emu.add_client()
        drive_sequential(
            emu.system,
            [(a, "write", ("1",)), (b, "write", ("2",)), (a, "read", ())],
        )
        assert emu.history.reads[0].result == "2"

    def test_minimum_server_count_enforced(self):
        with pytest.raises(ValueError):
            CASABDEmulation(n=3, f=2)

    def test_iteration_accounting(self):
        emu = CASABDEmulation(n=3, f=1, scheduler=RandomScheduler(5))
        client = emu.add_client()
        drive_sequential(emu.system, [(client, "write", ("x",))])
        assert emu.total_iterations > 0
