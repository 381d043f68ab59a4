"""SARIF 2.1.0 rendering and validation (``--format sarif``), and the
content fingerprints each result carries."""

import json
import textwrap

import pytest

from repro.lint import lint_paths, render_sarif, sarif_payload, validate_sarif
from repro.lint.sarif import SARIF_VERSION

DIRTY = """
import random

value = random.random()
"""

SUPPRESSED = """
import random

value = random.random()  # repro-lint: disable=R001 fixture reason
"""

LEAK = """
def leaky(kernel, meter):
    kernel.add_listener(meter)
    kernel.run(max_steps=100)
"""


def _lint(tmp_path, source, name="fixture.py", rule_ids=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([path], rule_ids=rule_ids)


class TestRendering:
    def test_active_finding_becomes_result(self, tmp_path):
        result = _lint(tmp_path, DIRTY)
        payload = json.loads(render_sarif(result))
        assert payload["version"] == SARIF_VERSION
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        (item,) = run["results"]
        assert item["ruleId"] == "R001"
        assert item["level"] == "error"
        assert "suppressions" not in item
        region = item["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1

    def test_rule_catalog_covers_all_rules(self, tmp_path):
        result = _lint(tmp_path, DIRTY)
        payload = sarif_payload(result)
        rule_ids = {
            rule["id"]
            for rule in payload["runs"][0]["tool"]["driver"]["rules"]
        }
        for rule_id in (
            "R001", "R002", "R004", "R005",
            "R006", "R007", "R008", "R009", "R010",
        ):
            assert rule_id in rule_ids

    def test_rule_index_points_into_catalog(self, tmp_path):
        result = _lint(tmp_path, DIRTY)
        payload = sarif_payload(result)
        run = payload["runs"][0]
        (item,) = run["results"]
        indexed = run["tool"]["driver"]["rules"][item["ruleIndex"]]
        assert indexed["id"] == item["ruleId"]

    def test_fingerprint_carried(self, tmp_path):
        result = _lint(tmp_path, DIRTY)
        payload = sarif_payload(result)
        (item,) = payload["runs"][0]["results"]
        assert item["partialFingerprints"]["reproLint/v1"]
        assert (
            item["partialFingerprints"]["reproLint/v1"]
            == result.active[0].fingerprint
        )

    def test_inline_suppression_marked_in_source(self, tmp_path):
        result = _lint(tmp_path, SUPPRESSED)
        payload = sarif_payload(result)
        (item,) = payload["runs"][0]["results"]
        assert item["suppressions"][0]["kind"] == "inSource"

    def test_inline_suppression_carries_justification(self, tmp_path):
        payload = sarif_payload(_lint(tmp_path, SUPPRESSED))
        (item,) = payload["runs"][0]["results"]
        assert item["suppressions"] == [
            {"kind": "inSource", "justification": "fixture reason"}
        ]

    def test_reasonless_directive_has_no_justification(self, tmp_path):
        source = SUPPRESSED.replace(" fixture reason", "")
        payload = sarif_payload(_lint(tmp_path, source))
        (item,) = payload["runs"][0]["results"]
        assert item["suppressions"] == [{"kind": "inSource"}]


class TestValidation:
    def test_rendered_output_validates(self, tmp_path):
        result = _lint(tmp_path, DIRTY)
        payload = json.loads(render_sarif(result))
        assert validate_sarif(payload) == []

    def test_empty_run_validates(self, tmp_path):
        result = _lint(tmp_path, "x = 1\n")
        assert validate_sarif(sarif_payload(result)) == []

    def test_bad_version_rejected(self, tmp_path):
        payload = sarif_payload(_lint(tmp_path, DIRTY))
        payload["version"] = "1.0.0"
        assert validate_sarif(payload)

    def test_missing_message_rejected(self, tmp_path):
        payload = sarif_payload(_lint(tmp_path, DIRTY))
        del payload["runs"][0]["results"][0]["message"]
        assert validate_sarif(payload)

    def test_unknown_rule_id_rejected(self, tmp_path):
        payload = sarif_payload(_lint(tmp_path, DIRTY))
        payload["runs"][0]["results"][0]["ruleId"] = "R999"
        assert any(
            "not in driver.rules" in message
            for message in validate_sarif(payload)
        )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("level", "fatal"),
            ("ruleIndex", -1),
            ("ruleIndex", "0"),
            ("ruleId", 1),
            ("message", "text"),
            ("locations", {}),
            ("partialFingerprints", {"reproLint/v1": 7}),
            ("suppressions", [{"kind": "baseline"}]),
            ("suppressions", [{"justification": "no kind"}]),
            ("suppressions", [{"kind": "inSource", "justification": 1}]),
        ],
    )
    def test_bad_result_field_rejected(self, tmp_path, field, value):
        payload = sarif_payload(_lint(tmp_path, DIRTY))
        payload["runs"][0]["results"][0][field] = value
        assert validate_sarif(payload)

    @pytest.mark.parametrize(
        "key, value", [("startLine", 0), ("startColumn", True)]
    )
    def test_region_must_be_one_based_int(self, tmp_path, key, value):
        payload = sarif_payload(_lint(tmp_path, DIRTY))
        location = payload["runs"][0]["results"][0]["locations"][0]
        location["physicalLocation"]["region"][key] = value
        assert validate_sarif(payload)

    def test_missing_required_fields_rejected(self, tmp_path):
        payload = sarif_payload(_lint(tmp_path, DIRTY))
        run = payload["runs"][0]
        del run["tool"]["driver"]["name"]
        del run["tool"]["driver"]["rules"][0]["id"]
        location = run["results"][0]["locations"][0]["physicalLocation"]
        del location["artifactLocation"]["uri"]
        errors = validate_sarif(payload)
        for needle in ("driver.name", "rule.id", "artifactLocation.uri"):
            assert any(needle in message for message in errors), needle


class TestFingerprints:
    """A fingerprint hashes the rule id, the package-relative path and
    the normalized source line — not the line number — so a result keeps
    its code-scanning identity across edits that merely shift code."""

    def test_stable_across_line_shifts(self, tmp_path):
        before = _lint(tmp_path, LEAK, rule_ids=["R005"])
        after = _lint(
            tmp_path, "# a new comment\n\n\n" + LEAK, rule_ids=["R005"]
        )
        (first,) = before.active
        (second,) = after.active
        assert first.line != second.line
        assert first.fingerprint == second.fingerprint

    def test_changes_when_line_changes(self, tmp_path):
        before = _lint(tmp_path, LEAK, rule_ids=["R005"])
        after = _lint(
            tmp_path,
            LEAK.replace("(meter)", "(other_meter)"),
            rule_ids=["R005"],
        )
        assert before.active[0].fingerprint != after.active[0].fingerprint

    def test_identical_lines_get_distinct_fingerprints(self, tmp_path):
        result = _lint(
            tmp_path,
            """
            def one(kernel, meter):
                kernel.add_listener(meter)

            def two(kernel, meter):
                kernel.add_listener(meter)
            """,
            rule_ids=["R005"],
        )
        assert len(result.active) == 2
        fingerprints = {item.fingerprint for item in result.active}
        assert len(fingerprints) == 2
