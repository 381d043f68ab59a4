"""Tests for the ablation module: each removed mechanism breaks safety."""

import pytest

from repro.core.ablation import (
    NoCoverAvoidanceEmulation,
    ScriptedWriteBlocker,
    SmallQuorumEmulation,
    baseline_no_violation,
    cover_avoidance_violation,
    small_quorum_violation,
)
from repro.sim.ids import ObjectId
from repro.sim.scheduling import RandomScheduler


class TestCoverAvoidanceAblation:
    def test_violation_produced(self):
        violations = cover_avoidance_violation()
        assert len(violations) == 1
        violation = violations[0]
        assert violation.read.result == "v2"
        assert violation.allowed == ["v3"]

    def test_ablated_client_still_works_failure_free(self):
        """Without the adversary the ablated client behaves fine — the
        bug only surfaces under covering writes, which is the point."""
        emu = NoCoverAvoidanceEmulation(
            k=1, n=3, f=1, scheduler=RandomScheduler(0)
        )
        writer = emu.add_writer(0)
        reader = emu.add_reader()
        writer.enqueue("write", "x")
        assert emu.system.run_to_quiescence().satisfied
        reader.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        assert emu.history.reads[0].result == "x"


class TestSmallQuorumAblation:
    def test_violation_produced(self):
        violations = small_quorum_violation()
        assert len(violations) == 1
        assert violations[0].read.result == "v0"
        assert violations[0].allowed == ["v1"]

    def test_ablated_client_still_works_failure_free(self):
        emu = SmallQuorumEmulation(
            k=1, n=3, f=1, scheduler=RandomScheduler(0)
        )
        writer = emu.add_writer(0)
        reader = emu.add_reader()
        writer.enqueue("write", "x")
        assert emu.system.run_to_quiescence().satisfied
        reader.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        assert emu.history.reads[0].result == "x"


class TestBaseline:
    def test_real_algorithm_survives_same_attack(self):
        assert baseline_no_violation() == []


class TestScriptedWriteBlocker:
    def test_blocks_all_writes_on_object(self):
        from tests.conftest import ToyProtocol
        from repro.sim.ids import ClientId
        from repro.sim.system import build_system

        env = ScriptedWriteBlocker().block(ObjectId(0))
        system = build_system(
            1, [(0, "register", None)], environment=env,
            scheduler=RandomScheduler(0),
        )
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        result = system.kernel.run(max_steps=100)
        assert result.reason == "blocked"

    def test_threshold_frees_new_writes(self):
        from tests.conftest import ToyProtocol
        from repro.sim.ids import ClientId
        from repro.sim.system import build_system

        env = ScriptedWriteBlocker()
        system = build_system(
            1, [(0, "register", None)], environment=env,
            scheduler=RandomScheduler(0),
        )
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        system.kernel.force_client_step(ClientId(0))
        env.block(ObjectId(0), triggered_before=system.kernel.time + 1)
        assert system.kernel.run(max_steps=50).reason == "blocked"
        # A later write on the same object is allowed.
        env.rules[ObjectId(0)] = system.kernel.time  # move threshold back
        result = system.run_to_quiescence(max_steps=200)
        # The original (old) write is still blocked; the client waits.
        assert result.reason in ("blocked", "until")

    def test_unblock(self):
        env = ScriptedWriteBlocker().block(ObjectId(1))
        env.unblock(ObjectId(1))
        assert ObjectId(1) not in env.rules
