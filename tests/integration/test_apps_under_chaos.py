"""Integration: the emulations under the KV store survive chaotic
environments.

The register and max-register emulations are driven with chaotic respond
delays plus crashes — the weather the substrate hands real deployments —
and must stay correct.
"""

import pytest

from repro.core.ft_maxreg import FTMaxRegister
from repro.core.ws_register import WSRegisterEmulation
from repro.sim.chaos import ChaosEnvironment
from repro.sim.scheduling import RandomScheduler
from repro.verify import verify_run


class TestRegisterUnderChaosPlusCrashes:
    @pytest.mark.parametrize("seed", [7, 17])
    def test_full_verification(self, seed):
        emu = WSRegisterEmulation(
            k=2,
            n=5,
            f=2,
            scheduler=RandomScheduler(seed),
            environment=ChaosEnvironment(
                seed=seed, veto_probability=0.5, max_delay=60
            ),
        )
        writers = [emu.add_writer(i) for i in range(2)]
        reader = emu.add_reader()
        writers[0].enqueue("write", "a")
        assert emu.system.run_to_quiescence(max_steps=3_000_000).satisfied
        from repro.sim.ids import ServerId

        emu.kernel.crash_server(ServerId(seed % 5))
        writers[1].enqueue("write", "b")
        reader.enqueue("read")
        assert emu.system.run_to_quiescence(max_steps=3_000_000).satisfied
        report = verify_run(emu, condition="ws-regular")
        assert report.ok, report.details()


class TestFTMaxRegisterUnderChaos:
    def test_monotone_and_atomic(self):
        register = FTMaxRegister(
            n=5,
            f=2,
            scheduler=RandomScheduler(9),
            environment=ChaosEnvironment(
                seed=9, veto_probability=0.7, max_delay=50
            ),
        )
        clients = [register.add_client() for _ in range(3)]
        clients[0].enqueue("write_max", 4)
        clients[1].enqueue("write_max", 9)
        clients[2].enqueue("read_max")
        assert register.system.run_to_quiescence(max_steps=3_000_000).satisfied
        report = verify_run(
            register, condition="max-register-atomic", initial_value=0
        )
        assert report.ok, report.details()
