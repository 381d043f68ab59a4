"""The repository must pass its own linter.

``repro lint src/`` is a CI gate; this test is the same gate runnable
locally, plus the hygiene conditions that keep the gate honest: every
suppression directive carries a reason short enough for ruff's 88
columns, and no R010 finding is silenced — every raise site uses a
``repro.errors`` class.
"""

from pathlib import Path

from repro.lint import collect_files, lint_paths, load_module

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_src_is_lint_clean():
    result = lint_paths([SRC])
    assert result.files > 0
    rendered = "\n".join(item.render() for item in result.active)
    assert result.active == [], f"lint findings in src/:\n{rendered}"


def test_no_typed_error_finding_is_suppressed():
    result = lint_paths([SRC], rule_ids=["R010"])
    assert result.findings == [], [item.render() for item in result.findings]


def test_every_suppression_has_a_reason():
    offenders = []
    for path in collect_files([SRC]):
        module = load_module(path)
        for line in module.suppressions.reasonless():
            offenders.append(f"{path}:{line}")
    assert offenders == [], (
        "repro-lint directives without a reason string: " + ", ".join(offenders)
    )


def test_every_directive_line_fits_ruff_line_length():
    """CI's ``ruff check src`` enforces E501 at 88 columns; a reason
    must be short enough to keep its directive line under it."""
    offenders = []
    for path in collect_files([SRC]):
        module = load_module(path)
        for line in module.suppressions.by_line:
            if len(module.lines[line - 1]) > 88:
                offenders.append(f"{path}:{line}")
    assert offenders == [], "directive lines over 88 columns: " + ", ".join(
        offenders
    )


def test_parse_clean():
    for path in collect_files([SRC]):
        assert load_module(path).tree is not None, f"{path} does not parse"
