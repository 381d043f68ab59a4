"""One condition table, one verdict.

``Deployment.audit``, ``Slot.audit`` and ``verify_run`` all look the
consistency condition up in :data:`repro.consistency.conditions.CONDITIONS`.
These tests hold the three to the same verdict and ``verify_run`` to the
reports it gave while it dispatched on the name itself (the expected
values below were recorded from that implementation).
"""

import pytest

from repro.consistency.conditions import CONDITIONS as TABLE
from repro.core import EmulationSpec, algorithm_names
from repro.core.ablation import NoCoverAvoidanceEmulation, small_quorum_run
from repro.core.theorem5 import partition_run
from repro.errors import InvalidConfig
from repro.sim.scheduling import RandomScheduler
from repro.verify import CONDITIONS, verify_run

from tests.test_verify import _clean_ws_run


def _two_rounds(emu, write=None, read=None):
    writer, reader = emu.add_writer(0), emu.add_reader()
    for value in (1, 2):
        writer.enqueue(write or emu.WRITE, value)
        reader.enqueue(read or emu.READ)
        assert emu.system.run_to_quiescence().satisfied
    return emu


def _registry_run(name):
    return _two_rounds(EmulationSpec.make(name, k=2, n=5, f=2, seed=4).build())


def _no_cover_run():
    return _two_rounds(
        NoCoverAvoidanceEmulation(k=1, n=3, f=1, scheduler=RandomScheduler(4))
    )


DEPLOYMENTS = [
    *((name, lambda name=name: _registry_run(name)) for name in algorithm_names()),
    *((f"theorem5-f{f}", lambda f=f: partition_run(f)) for f in (1, 2, 3)),
    ("small-quorum", small_quorum_run),
    ("no-cover-avoidance", _no_cover_run),
]


class TestOneVerdict:
    @pytest.mark.parametrize(
        "build", [b for _, b in DEPLOYMENTS], ids=[n for n, _ in DEPLOYMENTS]
    )
    def test_verify_run_agrees_with_audit(self, build):
        emu = build()
        report = verify_run(
            emu, condition=emu.CONDITION, initial_value=emu.initial_value
        )
        assert report.checks[TABLE[emu.CONDITION].label] == emu.audit()

    def test_both_verdicts_occur(self):
        # The agreement above is not vacuous: both outcomes are covered.
        verdicts = {build().audit() for _, build in DEPLOYMENTS}
        assert verdicts == {True, False}

    def test_slot_audit_reads_the_same_table(self):
        from repro.core.multi import MultiRegisterDeployment

        fleet = MultiRegisterDeployment(
            m=2, k=1, n=3, f=1, scheduler=RandomScheduler(1)
        )
        slot = fleet.register(0)
        _two_rounds(slot, "write", "read")
        assert slot.audit() == TABLE["ws-regular"].holds(slot.history)
        assert slot.audit()

    def test_verify_exports_the_table(self):
        assert CONDITIONS is TABLE
        assert tuple(CONDITIONS) == (
            "atomic",
            "ws-regular",
            "ws-safe",
            "mw-weak",
            "mw-strong",
            "max-register-atomic",
        )

    def test_unknown_condition_is_typed(self):
        with pytest.raises(InvalidConfig, match="serializable"):
            verify_run(_clean_ws_run(seed=3), condition="serializable")


_WELL = "well-formed schedule"
_BASE = "base objects atomic"

#: condition -> (label, verdict on _clean_ws_run, verdict and violations
#: on the small_quorum_violation history)
RECORDED = {
    "atomic": ("atomicity (linearizability)", True, False, None),
    "ws-regular": (
        "WS-Regularity",
        True,
        False,
        [
            "WS-Regular violation: read()->'v0' by c1001 [11,19] returned"
            " 'v0', allowed ['v1']"
        ],
    ),
    "ws-safe": (
        "WS-Safety",
        True,
        False,
        [
            "WS-Safe violation: read()->'v0' by c1001 [11,19] returned"
            " 'v0', allowed ['v1']"
        ],
    ),
    "mw-weak": (
        "MW-Weak regularity",
        True,
        False,
        [
            "MW-Weak violation: read()->'v0' by c1001 [11,19] returned"
            " 'v0', allowed []"
        ],
    ),
    "mw-strong": (
        "MW-Strong regularity",
        True,
        False,
        [
            "MW-Strong violation: read()->'v0' by c1001 [11,19] returned"
            " 'v0', allowed []"
        ],
    ),
}


class TestRecordedReports:
    @pytest.mark.parametrize("condition", sorted(RECORDED))
    def test_clean_run(self, condition):
        label, clean, _, _ = RECORDED[condition]
        report = verify_run(_clean_ws_run(), condition=condition)
        assert report.checks == {_WELL: True, label: clean, _BASE: True}
        assert list(report.checks) == [_WELL, label, _BASE]
        assert report.ok is clean
        assert report.violations == []

    @pytest.mark.parametrize("condition", sorted(RECORDED))
    def test_small_quorum_history(self, condition):
        label, _, verdict, violations = RECORDED[condition]
        report = verify_run(
            small_quorum_run(), condition=condition, initial_value="v0"
        )
        assert report.checks == {_WELL: True, label: verdict, _BASE: True}
        assert list(report.checks) == [_WELL, label, _BASE]
        assert report.ok is verdict
        if violations is not None:
            assert report.violations == violations

    @pytest.mark.parametrize(
        "build,v0,operation",
        [(_clean_ws_run, None, "read"), (small_quorum_run, "v0", "write")],
    )
    def test_max_register_atomic_refuses_register_histories(
        self, build, v0, operation
    ):
        with pytest.raises(
            ValueError, match=f"unknown operation '{operation}'"
        ):
            verify_run(build(), condition="max-register-atomic", initial_value=v0)
