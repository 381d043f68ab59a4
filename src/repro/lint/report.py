"""Rendering lint results as text and JSON."""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.lint.engine import RULES, LintResult


def render_text(result: LintResult, verbose: bool = False) -> str:
    """The human-facing report: one line per active finding + summary."""
    lines = [item.render() for item in result.active]
    if verbose:
        lines.extend(
            f"{item.render()} [suppressed]" for item in result.suppressed
        )
    lines.append(
        f"repro lint: {result.files} file(s),"
        f" {len(result.active)} finding(s)"
        f" ({len(result.suppressed)} suppressed)"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """The machine-facing report (uploaded as a CI artifact)."""
    payload: "Dict[str, Any]" = {
        "findings": [item.to_dict() for item in result.active],
        "suppressed": [item.to_dict() for item in result.suppressed],
        "summary": {
            "files": result.files,
            "active": len(result.active),
            "suppressed": len(result.suppressed),
            "ok": result.ok,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rules() -> str:
    """The rule catalog (``repro lint --list-rules``)."""
    # Importing the rule modules populates the registry.
    import repro.lint.rules  # noqa: F401
    import repro.lint.rules_flow  # noqa: F401

    width = max(len(rule_id) for rule_id in RULES)
    return "\n".join(
        f"{rule_id:<{width}}  {rule.title}"
        for rule_id, rule in sorted(RULES.items())
    )


def render_explain(rule_id: str) -> str:
    """One rule's rationale (``repro lint --explain R010``)."""
    import repro.lint.rules  # noqa: F401
    import repro.lint.rules_flow  # noqa: F401

    rule = RULES.get(rule_id)
    if rule is None:
        known = ", ".join(sorted(RULES))
        return f"unknown rule {rule_id!r}; known rules: {known}"
    body = getattr(rule, "explain", "") or rule.title
    return f"{rule.id} — {rule.title}\n\n{body}"
