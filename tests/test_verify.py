"""Tests for the one-call verification pipeline."""

import pytest

from repro.core.abd import ABDEmulation
from repro.core.ablation import small_quorum_violation
from repro.core.ws_register import WSRegisterEmulation
from repro.sim.scheduling import RandomScheduler
from repro.verify import CONDITIONS, VerificationReport, verify_run


def _clean_ws_run(seed=0):
    emu = WSRegisterEmulation(k=2, n=5, f=2, scheduler=RandomScheduler(seed))
    writers = [emu.add_writer(i) for i in range(2)]
    reader = emu.add_reader()
    for index in range(2):
        writers[index].enqueue("write", f"v{index}")
        reader.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
    return emu


class TestVerifyRun:
    def test_clean_run_passes_ws_regular(self):
        report = verify_run(_clean_ws_run(), condition="ws-regular")
        assert report.ok
        assert report.checks["WS-Regularity"]
        assert report.checks["well-formed schedule"]
        assert report.checks["base objects atomic"]

    def test_clean_run_passes_ws_safe_and_mw(self):
        emu = _clean_ws_run(seed=1)
        for condition in ("ws-safe", "mw-weak", "mw-strong"):
            report = verify_run(emu, condition=condition)
            assert report.ok, report.details()

    def test_abd_passes_atomic(self):
        emu = ABDEmulation(n=5, f=2, scheduler=RandomScheduler(2))
        a, b = emu.add_client(), emu.add_client()
        a.enqueue("write", "x")
        b.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        report = verify_run(emu, condition="atomic")
        assert report.ok

    def test_violation_reported(self):
        # Reuse the ablation scenario: it returns violations, but we want
        # the emulation object; rebuild it here via the module internals.
        from repro.core.ablation import (
            ScriptedWriteBlocker,
            SmallQuorumEmulation,
        )
        from repro.sim.scheduling import RoundRobinScheduler

        env = ScriptedWriteBlocker()
        emu = SmallQuorumEmulation(
            k=1,
            n=3,
            f=1,
            initial_value="v0",
            scheduler=RoundRobinScheduler(),
            environment=env,
        )
        writer = emu.add_writer(0)
        reader = emu.add_reader()
        b0, b1, b2 = emu.layout.registers_for_writer(0)
        env.block(b1)
        env.block(b2)
        writer.enqueue("write", "v1")
        emu.kernel.run(
            max_steps=50_000,
            until=lambda k: writer.idle and not writer.program,
        )
        emu.kernel.crash_server(emu.layout.server_of(b0))
        reader.enqueue("read")
        emu.kernel.run(
            max_steps=50_000,
            until=lambda k: reader.idle and not reader.program,
        )

        report = verify_run(emu, condition="ws-safe", initial_value="v0")
        assert not report.ok
        assert not report.checks["WS-Safety"]
        assert any("WS-Safe" in v for v in report.violations)
        assert "FAIL" in report.details()

    def test_unknown_condition(self):
        with pytest.raises(ValueError):
            verify_run(_clean_ws_run(seed=3), condition="serializable")

    def test_details_count_checked_and_skipped_objects(self):
        emu = _clean_ws_run(seed=5)
        sizes = [
            len(emu.kernel.ops.projection(oid))
            for oid in emu.object_map.object_ids
        ]
        cap = min(sizes)
        skipped = sum(1 for size in sizes if size > cap)
        assert 0 < skipped < len(sizes)
        report = verify_run(emu, max_ops_per_object=cap)
        assert report.checks["base objects atomic"]
        assert (
            f"PASS  base objects atomic ({len(sizes) - skipped} checked,"
            f" {skipped} over the {cap}-op cap)"
        ) in report.details()
        unbounded = verify_run(emu, max_ops_per_object=None)
        assert (
            f"PASS  base objects atomic ({len(sizes)} checked)"
            in unbounded.details()
        )

    def test_substrate_audit_optional(self):
        report = verify_run(
            _clean_ws_run(seed=4), condition="ws-regular",
            audit_substrate=False,
        )
        assert "base objects atomic" not in report.checks
        assert report.ok

    def test_all_conditions_enumerated(self):
        assert set(CONDITIONS) == {
            "atomic",
            "ws-regular",
            "ws-safe",
            "mw-weak",
            "mw-strong",
            "max-register-atomic",
        }

    def test_max_register_condition(self):
        from repro.core.ft_maxreg import FTMaxRegister

        register = FTMaxRegister(n=5, f=2, scheduler=RandomScheduler(6))
        a, b = register.add_client(), register.add_client()
        a.enqueue("write_max", 5)
        b.enqueue("write_max", 3)
        a.enqueue("read_max")
        assert register.system.run_to_quiescence().satisfied
        report = verify_run(
            register, condition="max-register-atomic", initial_value=0
        )
        assert report.ok, report.details()
