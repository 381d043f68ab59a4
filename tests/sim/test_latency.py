"""Emulations stay correct under stragglers: slow links to some servers.

The straggler model is :func:`repro.net.faults.straggler_plan` over a
:class:`~repro.net.lossy.LossyTransport`: every message to or from a
straggler is delayed far longer than the rest, and nothing is dropped.
"""

from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.ws import check_ws_regular
from repro.core.emulation import EmulationSpec
from repro.net.config import TransportConfig
from repro.net.faults import straggler_plan


def _stragglers(slow_servers, seed):
    return TransportConfig.lossy(
        straggler_plan(slow_servers, slow_delay=(50, 100)), seed=seed
    )


class TestEmulationsUnderStragglers:
    def test_ws_register_survives_straggler(self):
        emu = EmulationSpec.make(
            "ws-register", k=2, n=5, f=2, seed=3, transport=_stragglers([0, 4], 3)
        ).build()
        writers = [emu.add_writer(i) for i in range(2)]
        reader = emu.add_reader()
        for index in range(3):
            writers[index % 2].enqueue("write", f"v{index}")
            reader.enqueue("read")
            result = emu.system.run_to_quiescence(max_steps=1_000_000)
            assert result.satisfied  # wait-free despite the stragglers
        assert check_ws_regular(emu.history, cross_check=True) == []

    def test_abd_atomic_under_straggler(self):
        emu = EmulationSpec.make(
            "abd", n=5, f=2, seed=4, transport=_stragglers([2], 4)
        ).build()
        a, b = emu.add_client(), emu.add_client()
        a.enqueue("write", "x")
        b.enqueue("write", "y")
        a.enqueue("read")
        assert emu.system.run_to_quiescence(max_steps=1_000_000).satisfied
        assert is_register_history_atomic(emu.history)
