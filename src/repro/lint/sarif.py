"""SARIF 2.1.0 output for ``repro lint --format sarif``.

SARIF (Static Analysis Results Interchange Format) is the format CI
platforms ingest for PR annotations: GitHub's ``upload-sarif`` action
turns each ``result`` into an inline diff annotation at its
``physicalLocation``.  This module renders a :class:`~repro.lint.engine.
LintResult` as one SARIF run and validates the output against the slice
of the official schema the lint output exercises, with plain structural
checks, so the ``lint-self`` CI smoke needs neither network access nor
a schema library.

Suppressed findings are included with a ``suppressions`` array (kind
``inSource``, carrying the ``# repro-lint: disable=`` directive's reason
as the justification); SARIF consumers hide suppressed results but keep
them auditable.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.lint.engine import RULES, Finding, LintResult

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: the schema's enums for ``result.level`` and ``suppression.kind``.
LEVELS = ("none", "note", "warning", "error")
SUPPRESSION_KINDS = ("inSource", "external")


def _artifact_uri(finding: Finding) -> str:
    return finding.path.replace("\\", "/")


def _result(
    finding: Finding,
    rule_index: "Dict[str, int]",
    suppression: "Optional[Dict[str, str]]" = None,
) -> "Dict[str, Any]":
    payload: "Dict[str, Any]" = {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": _artifact_uri(finding)},
                    "region": {
                        "startLine": max(1, finding.line),
                        "startColumn": max(1, finding.col),
                    },
                }
            }
        ],
        "partialFingerprints": {"reproLint/v1": finding.fingerprint},
    }
    if finding.rule in rule_index:
        payload["ruleIndex"] = rule_index[finding.rule]
    if suppression is not None:
        payload["suppressions"] = [suppression]
    return payload


def sarif_payload(
    result: LintResult, tool_version: str = "0"
) -> "Dict[str, Any]":
    """The SARIF log for one lint run, as a plain dict."""
    # importing the rule modules populates the registry for the catalog
    import repro.lint.rules  # noqa: F401
    import repro.lint.rules_flow  # noqa: F401

    rules: "List[Dict[str, Any]]" = []
    rule_index: "Dict[str, int]" = {}
    for rule_id, rule in sorted(RULES.items()):
        rule_index[rule_id] = len(rules)
        descriptor: "Dict[str, Any]" = {
            "id": rule_id,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.title},
            "defaultConfiguration": {"level": "error"},
        }
        explain = getattr(rule, "explain", "")
        if explain:
            descriptor["fullDescription"] = {
                "text": " ".join(explain.split())
            }
        rules.append(descriptor)
    results: "List[Dict[str, Any]]" = []
    for finding in result.active:
        results.append(_result(finding, rule_index))
    for finding in result.suppressed:
        suppression = {"kind": "inSource"}
        if finding.reason:
            suppression["justification"] = finding.reason
        results.append(_result(finding, rule_index, suppression=suppression))
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": tool_version,
                        "informationUri": (
                            "https://example.invalid/repro/docs/LINTING.md"
                        ),
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(result: LintResult, tool_version: str = "0") -> str:
    """The SARIF log as a JSON string (stable key order)."""
    return json.dumps(
        sarif_payload(result, tool_version), indent=2, sort_keys=True
    )


def _object(
    value: Any, where: str, required: "Sequence[str]", errors: "List[str]"
) -> "Dict[str, Any]":
    """``value`` when it is an object (``{}`` otherwise); checks keys."""
    if not isinstance(value, dict):
        errors.append(f"{where} must be an object")
        return {}
    for key in required:
        if key not in value:
            errors.append(f"{where}.{key} is required")
    return value


def _array(
    node: "Dict[str, Any]", key: str, where: str, errors: "List[str]"
) -> "List[Any]":
    """``node[key]`` when it is an array (``[]`` when absent or not)."""
    value = node.get(key, [])
    if not isinstance(value, list):
        errors.append(f"{where}.{key} must be an array")
        return []
    return value


def _strings(
    node: "Dict[str, Any]",
    keys: "Sequence[str]",
    where: str,
    errors: "List[str]",
) -> None:
    for key in keys:
        if key in node and not isinstance(node[key], str):
            errors.append(f"{where}.{key} must be a string")


def _int_at_least(
    node: "Dict[str, Any]",
    key: str,
    minimum: int,
    where: str,
    errors: "List[str]",
) -> None:
    if key not in node:
        return
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        errors.append(f"{where}.{key} must be an integer >= {minimum}")


def _enum(
    node: "Dict[str, Any]",
    key: str,
    allowed: "Sequence[str]",
    where: str,
    errors: "List[str]",
) -> None:
    if key in node and node[key] not in allowed:
        errors.append(f"{where}.{key} must be one of {', '.join(allowed)}")


def _rule_errors(rule: Any, errors: "List[str]") -> "Optional[str]":
    """Check one ``driver.rules`` entry; returns its id."""
    rule = _object(rule, "rule", ("id",), errors)
    _strings(rule, ("id", "name"), "rule", errors)
    for key in ("shortDescription", "fullDescription"):
        if key in rule:
            _object(rule[key], f"rule.{key}", ("text",), errors)
    if "defaultConfiguration" in rule:
        _object(rule["defaultConfiguration"], "rule.config", (), errors)
    rule_id = rule.get("id")
    return rule_id if isinstance(rule_id, str) else None


def _location_errors(location: Any, errors: "List[str]") -> None:
    location = _object(location, "location", (), errors)
    physical = _object(
        location.get("physicalLocation", {}), "physicalLocation", (), errors
    )
    if "artifactLocation" in physical:
        _object(
            physical["artifactLocation"], "artifactLocation", ("uri",), errors
        )
    region = _object(physical.get("region", {}), "region", (), errors)
    for key in ("startLine", "startColumn"):
        _int_at_least(region, key, 1, "region", errors)


def _result_errors(
    item: Any, known: "Set[Optional[str]]", errors: "List[str]"
) -> None:
    """Check one ``run.results`` entry against the schema and the catalog."""
    item = _object(item, "result", ("message", "ruleId"), errors)
    _strings(item, ("ruleId",), "result", errors)
    rule_id = item.get("ruleId")
    if known and isinstance(rule_id, str) and rule_id not in known:
        errors.append(f"result.ruleId {rule_id!r} not in driver.rules")
    _int_at_least(item, "ruleIndex", 0, "result", errors)
    _enum(item, "level", LEVELS, "result", errors)
    if "message" in item:
        message = _object(item["message"], "result.message", ("text",), errors)
        _strings(message, ("text",), "result.message", errors)
    for location in _array(item, "locations", "result", errors):
        _location_errors(location, errors)
    prints = _object(
        item.get("partialFingerprints", {}), "partialFingerprints", (), errors
    )
    _strings(prints, tuple(prints), "partialFingerprints", errors)
    for suppression in _array(item, "suppressions", "result", errors):
        suppression = _object(suppression, "suppression", ("kind",), errors)
        _enum(suppression, "kind", SUPPRESSION_KINDS, "suppression", errors)
        _strings(suppression, ("justification",), "suppression", errors)


def validate_sarif(payload: "Dict[str, Any]") -> "List[str]":
    """Validation errors for a SARIF log (empty list = valid).

    Checks every constraint of the schema slice the lint output
    exercises — required fields, types, the ``level`` and suppression
    ``kind`` enums, 1-based line/column ints, ``ruleIndex >= 0``, string
    fingerprints — plus one no schema can state: each result's
    ``ruleId`` is in the run's rule catalog.
    """
    errors: "List[str]" = []
    log = _object(payload, "log", ("version", "runs"), errors)
    if "version" in log and log["version"] != SARIF_VERSION:
        errors.append(f"version must be {SARIF_VERSION!r}")
    _strings(log, ("$schema",), "log", errors)
    runs = log.get("runs")
    if not isinstance(runs, list) or not runs:
        return errors + ["runs must be a non-empty array"]
    for run in runs:
        run = _object(run, "run", ("tool", "results"), errors)
        tool = _object(run.get("tool", {}), "tool", ("driver",), errors)
        driver = _object(tool.get("driver", {}), "driver", ("name",), errors)
        _strings(driver, ("name", "version", "informationUri"), "driver", errors)
        rules = _array(driver, "rules", "driver", errors)
        known = {_rule_errors(rule, errors) for rule in rules}
        for item in _array(run, "results", "run", errors):
            _result_errors(item, known, errors)
    return errors
