"""Soak scenarios: longer randomized runs across the full stack."""

import random

import pytest

from repro.analysis.baseobject_audit import audit_base_objects
from repro.analysis.invariants import (
    MonotoneTimestampInvariant,
    WriterCoverInvariant,
)
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.ws import check_ws_regular, check_ws_safe
from repro.core.abd import ABDEmulation
from repro.core.ws_register import WSRegisterEmulation
from repro.sim.failures import CrashPlan
from repro.sim.ids import ServerId
from repro.sim.scheduling import RandomScheduler


class TestAlgorithm2Soak:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_large_deployment_long_run(self, seed):
        k, n, f = 5, 11, 3
        rng = random.Random(seed)
        emu = WSRegisterEmulation(k=k, n=n, f=f, scheduler=RandomScheduler(seed))
        emu.kernel.add_listener(WriterCoverInvariant(f=f))
        emu.kernel.add_listener(MonotoneTimestampInvariant())
        plan = CrashPlan()
        crash_servers = rng.sample(range(n), f)
        for index, server in enumerate(crash_servers):
            plan.crash_server_at(150 * (index + 1), ServerId(server))
        plan.install(emu.kernel)

        writers = [emu.add_writer(i) for i in range(k)]
        readers = [emu.add_reader() for _ in range(3)]
        sequence = 0
        for round_index in range(6):
            writer = writers[rng.randrange(k)]
            writer.enqueue("write", f"s{seed}-v{sequence}")
            sequence += 1
            for reader in rng.sample(readers, rng.randint(1, 3)):
                reader.enqueue("read")
            result = emu.system.run_to_quiescence(max_steps=1_000_000)
            assert result.satisfied, f"round {round_index} stuck: {result}"

        assert check_ws_regular(emu.history, cross_check=True) == []
        assert check_ws_safe(emu.history) == []
        assert emu.object_map.crashed_servers == {
            ServerId(s) for s in crash_servers
        }

    def test_every_writer_twice_with_audit(self):
        k, n, f = 4, 9, 2
        emu = WSRegisterEmulation(k=k, n=n, f=f, scheduler=RandomScheduler(7))
        writers = [emu.add_writer(i) for i in range(k)]
        reader = emu.add_reader()
        for round_index in range(2):
            for index, writer in enumerate(writers):
                writer.enqueue("write", f"r{round_index}w{index}")
                reader.enqueue("read")
                assert emu.system.run_to_quiescence(
                    max_steps=1_000_000
                ).satisfied
        assert check_ws_regular(emu.history, cross_check=True) == []
        # Substrate self-audit on the smaller per-object projections.
        verdicts = audit_base_objects(emu.kernel, max_ops_per_object=20)
        assert all(verdicts.values()), verdicts


class TestABDSoak:
    @pytest.mark.parametrize("seed", [11, 22])
    def test_many_clients_concurrent_rounds(self, seed):
        rng = random.Random(seed)
        emu = ABDEmulation(n=7, f=3, scheduler=RandomScheduler(seed))
        clients = [emu.add_client() for _ in range(6)]
        sequence = 0
        for round_index in range(4):
            participants = rng.sample(clients, rng.randint(2, 5))
            for client in participants:
                if rng.random() < 0.6:
                    client.enqueue("write", f"s{seed}-v{sequence}")
                    sequence += 1
                else:
                    client.enqueue("read")
            assert emu.system.run_to_quiescence(max_steps=1_000_000).satisfied
        if round_index == 1:
            emu.kernel.crash_server(ServerId(rng.randrange(7)))
        assert is_register_history_atomic(emu.history)
