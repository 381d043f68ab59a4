"""One-call verification of a finished run.

``verify_run(emulation, condition=...)`` bundles every applicable check:

1. **Well-formedness** — each client's high-level projection is
   sequential (Appendix A.1).
2. **The consistency condition** — one of ``"atomic"``, ``"ws-regular"``,
   ``"ws-safe"``, ``"mw-weak"``, ``"mw-strong"``,
   ``"max-register-atomic"`` (the keys of
   :data:`repro.consistency.conditions.CONDITIONS`, re-exported here).
3. **Substrate self-audit** — every base object's low-level projection is
   linearizable (skippable; capped by projection size, and ``details()``
   says how many objects were checked and how many were over the cap).

Returns a :class:`VerificationReport`; ``report.ok`` is the single bit,
``report.details()`` the human-readable summary.  The examples and the
KV store's ``audit()`` are thin layers over the same checkers; this is
the general entry point for user-written emulations on the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.baseobject_audit import MAX_AUDITED_OPS, audit_base_objects
from repro.consistency.conditions import CONDITIONS
from repro.consistency.schedule import is_well_formed
from repro.errors import InvalidConfig


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_run`."""

    condition: str
    checks: "Dict[str, bool]" = field(default_factory=dict)
    violations: "List[str]" = field(default_factory=list)
    #: a check's scope, printed after its name (the substrate audit's
    #: checked and skipped object counts)
    notes: "Dict[str, str]" = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def details(self) -> str:
        lines = [f"verification against {self.condition!r}:"]
        for name, passed in self.checks.items():
            note = f" ({self.notes[name]})" if name in self.notes else ""
            lines.append(f"  {'PASS' if passed else 'FAIL'}  {name}{note}")
        for violation in self.violations:
            lines.append(f"    - {violation}")
        return "\n".join(lines)


def verify_run(
    emulation,
    condition: str = "ws-regular",
    initial_value: Any = None,
    audit_substrate: bool = True,
    max_ops_per_object: "Optional[int]" = MAX_AUDITED_OPS,
) -> VerificationReport:
    """Run all applicable checks over a finished emulation run."""
    if condition not in CONDITIONS:
        raise InvalidConfig(
            f"condition must be one of {tuple(CONDITIONS)}, got {condition!r}"
        )
    history = emulation.history
    report = VerificationReport(condition=condition)

    report.checks["well-formed schedule"] = is_well_formed(history)

    spec = CONDITIONS[condition]
    violations = spec.find(history, initial_value)
    report.checks[spec.label] = not violations
    report.violations.extend(str(v) for v in violations)

    if audit_substrate:
        verdicts = audit_base_objects(
            emulation.kernel, max_ops_per_object=max_ops_per_object
        )
        bad = [str(oid) for oid, passed in verdicts.items() if not passed]
        report.checks["base objects atomic"] = not bad
        skipped = len(verdicts.skipped)
        note = f"{len(verdicts) - skipped} checked"
        if max_ops_per_object is not None:
            note += f", {skipped} over the {max_ops_per_object}-op cap"
        report.notes["base objects atomic"] = note
        report.violations.extend(
            f"non-linearizable base object {oid}" for oid in bad
        )
    return report
