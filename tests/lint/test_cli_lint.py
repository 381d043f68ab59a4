"""The ``repro lint`` CLI: exit codes, JSON and SARIF output."""

import json
import textwrap

from repro.cli import main

CLEAN = """
def add(a, b):
    return a + b
"""

DIRTY = """
import random

value = random.random()
"""


def write(tmp_path, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, CLEAN)
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, DIRTY)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.py")]) == 2
        assert "error" in capsys.readouterr().err


class TestOutput:
    def test_json_to_stdout(self, tmp_path, capsys):
        path = write(tmp_path, DIRTY)
        assert main(["lint", str(path), "--json", "-"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["active"] == 1
        assert payload["findings"][0]["rule"] == "R001"
        assert payload["findings"][0]["fingerprint"]

    def test_json_to_file(self, tmp_path, capsys):
        path = write(tmp_path, DIRTY)
        report = tmp_path / "report.json"
        assert main(["lint", str(path), "--json", str(report)]) == 1
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["summary"]["ok"] is False
        capsys.readouterr()  # drain the text report

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R001", "R002", "R004", "R005", "R006"):
            assert rule_id in out

    def test_verbose_shows_suppressed(self, tmp_path, capsys):
        write(
            tmp_path,
            """
            import random

            value = random.random()  # repro-lint: disable=R001 fixture
            """,
        )
        assert main(["lint", str(tmp_path / "fixture.py"), "--verbose"]) == 0
        assert "[suppressed]" in capsys.readouterr().out


class TestSarifFormat:
    def test_sarif_to_stdout_validates(self, tmp_path, capsys):
        from repro.lint import validate_sarif

        path = write(tmp_path, DIRTY)
        assert main(["lint", str(path), "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert validate_sarif(payload) == []
        assert payload["runs"][0]["results"][0]["ruleId"] == "R001"

    def test_sarif_clean_run_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, CLEAN)
        assert main(["lint", str(path), "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []

    def test_format_json_renders_findings_payload(self, tmp_path, capsys):
        # JSON on stdout is spelled `--json -`; `--format` is text|sarif.
        path = write(tmp_path, DIRTY)
        assert main(["lint", str(path), "--json", "-", "--verbose"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["active"] == 1


class TestExplainFlag:
    def test_explain_r010(self, capsys):
        assert main(["lint", "--explain", "R010"]) == 0
        out = capsys.readouterr().out
        assert "InvalidConfig" in out
        assert "exit code" in out

    def test_explain_unknown_rule(self, capsys):
        assert main(["lint", "--explain", "R999"]) == 0
        assert "unknown rule" in capsys.readouterr().out
