"""Tests for the f-tolerant max-register."""

import pytest

from tests.conftest import drive_concurrent, drive_sequential

from repro.consistency.linearizability import is_linearizable
from repro.consistency.specs import MaxRegisterSpec
from repro.core.ft_maxreg import FTMaxRegister
from repro.sim.failures import CrashPlan
from repro.sim.ids import ServerId
from repro.sim.scheduling import RandomScheduler


def _register(n=5, f=2, seed=0, write_back=True):
    return FTMaxRegister(
        n=n, f=f, scheduler=RandomScheduler(seed), write_back=write_back
    )


class TestBasics:
    def test_initial_value(self):
        reg = _register()
        client = reg.add_client()
        drive_sequential(reg.system, [(client, "read_max", ())])
        assert reg.history.all_ops()[0].result == 0

    def test_monotone(self):
        reg = _register()
        a, b = reg.add_client(), reg.add_client()
        drive_sequential(
            reg.system,
            [
                (a, "write_max", (5,)),
                (b, "write_max", (3,)),
                (a, "read_max", ()),
            ],
        )
        assert reg.history.all_ops()[-1].result == 5

    def test_space_is_n(self):
        assert _register(n=5, f=2).total_objects == 5
        assert _register(n=7, f=3).total_objects == 7

    def test_min_servers(self):
        with pytest.raises(ValueError):
            FTMaxRegister(n=4, f=2)


class TestFaultTolerance:
    def test_f_crashes(self):
        reg = _register()
        reg.kernel.crash_server(ServerId(0))
        reg.kernel.crash_server(ServerId(2))
        a, b = reg.add_client(), reg.add_client()
        drive_sequential(
            reg.system, [(a, "write_max", (9,)), (b, "read_max", ())]
        )
        assert reg.history.all_ops()[-1].result == 9

    def test_crash_mid_run(self):
        reg = _register(seed=3)
        CrashPlan().crash_server_at(5, ServerId(1)).install(reg.kernel)
        a = reg.add_client()
        drive_sequential(
            reg.system,
            [(a, "write_max", (4,)), (a, "write_max", (7,)), (a, "read_max", ())],
        )
        assert reg.history.all_ops()[-1].result == 7

    def test_too_many_crashes_blocks(self):
        reg = _register()
        for s in range(3):
            reg.kernel.crash_server(ServerId(s))
        client = reg.add_client()
        client.enqueue("write_max", 1)
        assert reg.kernel.run(max_steps=10_000).reason == "quiescent"
        assert not reg.history.all_ops()[0].complete


class TestAtomicity:
    @pytest.mark.parametrize("seed", range(8))
    def test_concurrent_linearizable(self, seed):
        reg = _register(seed=seed)
        clients = [reg.add_client() for _ in range(4)]
        invocations = [
            (clients[0], "write_max", (3,)),
            (clients[1], "write_max", (8,)),
            (clients[2], "read_max", ()),
            (clients[3], "read_max", ()),
        ]
        drive_concurrent(reg.system, invocations)
        assert is_linearizable(reg.history.all_ops(), MaxRegisterSpec(0))

    @pytest.mark.parametrize("seed", range(4))
    def test_regular_variant_monotone_reads(self, seed):
        """Without write-back, sequential reads by one client still never
        observe a regression once a write completed (monotone values +
        quorum intersection)."""
        reg = _register(seed=seed, write_back=False)
        writer, reader = reg.add_client(), reg.add_client()
        drive_sequential(
            reg.system,
            [
                (writer, "write_max", (5,)),
                (reader, "read_max", ()),
                (reader, "read_max", ()),
            ],
        )
        reads = [
            op.result
            for op in reg.history.all_ops()
            if op.name == "read_max"
        ]
        assert reads == sorted(reads)
        assert reads[0] == 5


class TestRoundStateIsBounded:
    def test_responses_do_not_outlive_their_round(self):
        reg = FTMaxRegister(n=3, f=1, scheduler=RandomScheduler(9))
        client = reg.add_client()
        for value in range(200):
            client.enqueue("write_max", value)
            client.enqueue("read_max")
        assert reg.system.run_to_quiescence().satisfied
        assert len(client.protocol._results) <= 3
        assert reg.history.all_ops()[-1].result == 199
