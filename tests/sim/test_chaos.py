"""Tests for the chaos (random-delay) environment."""

import pytest

from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.ws import check_ws_regular
from repro.core.abd import ABDEmulation
from repro.core.emulation import EmulationSpec
from repro.core.ws_register import WSRegisterEmulation
from repro.net.config import TransportConfig
from repro.net.faults import chaos_faults
from repro.sim.chaos import ChaosEnvironment
from repro.sim.scheduling import RandomScheduler


class TestParameters:
    def test_probability_validated(self):
        with pytest.raises(ValueError):
            ChaosEnvironment(veto_probability=1.0)
        with pytest.raises(ValueError):
            ChaosEnvironment(veto_probability=-0.1)

    def test_delay_validated(self):
        with pytest.raises(ValueError):
            ChaosEnvironment(max_delay=-1)


class TestLivenessUnderChaos:
    @pytest.mark.parametrize("seed", range(4))
    def test_algorithm2_completes_and_stays_regular(self, seed):
        emu = WSRegisterEmulation(
            k=2,
            n=5,
            f=2,
            scheduler=RandomScheduler(seed),
            environment=ChaosEnvironment(
                seed=seed, veto_probability=0.7, max_delay=60
            ),
        )
        writers = [emu.add_writer(i) for i in range(2)]
        reader = emu.add_reader()
        for index in range(3):
            writers[index % 2].enqueue("write", f"v{index}")
            reader.enqueue("read")
            result = emu.system.run_to_quiescence(max_steps=2_000_000)
            assert result.satisfied
        assert check_ws_regular(emu.history, cross_check=True) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_abd_stays_atomic(self, seed):
        environment = ChaosEnvironment(
            seed=seed, veto_probability=0.6, max_delay=50
        )
        emu = ABDEmulation(
            n=5,
            f=2,
            scheduler=RandomScheduler(seed),
            environment=environment,
        )
        writers = [emu.add_client() for _ in range(2)]
        reader = emu.add_client()
        for i, writer in enumerate(writers):
            writer.enqueue("write", f"w{i}")
        reader.enqueue("read")
        assert emu.system.run_to_quiescence(max_steps=2_000_000).satisfied
        assert is_register_history_atomic(emu.history)
        assert environment.vetoes > 0  # chaos actually happened

    def test_high_chaos_still_terminates(self):
        emu = WSRegisterEmulation(
            k=1,
            n=3,
            f=1,
            scheduler=RandomScheduler(1),
            environment=ChaosEnvironment(
                seed=1, veto_probability=0.95, max_delay=40
            ),
        )
        writer = emu.add_writer(0)
        writer.enqueue("write", "x")
        result = emu.system.run_to_quiescence(max_steps=2_000_000)
        assert result.satisfied


class TestStallOverLossyTransport:
    """A stall release must pick an op that can respond.

    Over a lossy transport the oldest pending op's request may have been
    dropped or still be in flight; releasing it frees nothing, and the
    run used to end ``"blocked"`` with arrived ops still vetoed.
    """

    @staticmethod
    def _run(seed):
        emu = EmulationSpec.make(
            "abd",
            n=5,
            f=2,
            seed=seed,
            transport=TransportConfig.lossy(
                chaos_faults(drop=0.1, duplicate=0.0, reorder=0.0, max_delay=4),
                seed=seed,
            ),
            environment=ChaosEnvironment(
                seed=seed, veto_probability=0.5, max_delay=50
            ),
        ).build()
        writer, reader = emu.add_client(), emu.add_client()
        for value in range(6):
            writer.enqueue("write", value)
            reader.enqueue("read")
        return emu.kernel, emu.system.run_to_quiescence(max_steps=200_000)

    def test_no_run_ends_blocked(self):
        for seed in range(40):
            kernel, result = self._run(seed)
            assert result.reason != "blocked", seed
            if result.reason == "quiescent":
                # Only requests lost in the channel remain (out of model
                # beyond f): nothing that reached its server is pending.
                arrived = kernel.transport.request_arrived
                assert not any(arrived(op) for op in kernel.pending.values())


class TestDeterminism:
    def test_same_seed_same_vetoes(self):
        def run(seed):
            environment = ChaosEnvironment(
                seed=seed, veto_probability=0.5, max_delay=30
            )
            emu = ABDEmulation(
                n=3,
                f=1,
                scheduler=RandomScheduler(0),
                environment=environment,
            )
            client = emu.add_client()
            client.enqueue("write", "x")
            emu.system.run_to_quiescence(max_steps=1_000_000)
            return environment.vetoes, emu.kernel.time

        assert run(7) == run(7)
        # And at least some seeds differ.
        assert len({run(seed) for seed in range(5)}) > 1
