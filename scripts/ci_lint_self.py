"""CI lint-self smoke: the linter lints this repo and its SARIF is valid.

Two assertions, end to end through the real CLI surface:

1. ``repro lint src/`` exits 0 — no active findings (the same gate as
   ``tests/lint/test_self_clean.py``, run here against the installed
   package rather than the source tree).
2. The SARIF the CLI emits for ``src/`` passes
   ``repro.lint.validate_sarif``, every result's ``ruleId`` resolves into
   the rule catalog, and every suppressed finding carries an ``inSource``
   suppression whose ``justification`` is the directive's reason
   (GitHub's code-scanning UI shows these as suppressed, with the
   reason, instead of open alerts).

Usage::

    python scripts/ci_lint_self.py [--out lint.sarif]
"""

import argparse
import json
import subprocess
import sys


def run_lint(*argv: str) -> "subprocess.CompletedProcess":
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src/", *argv],
        capture_output=True,
        text=True,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="lint.sarif",
        help="where to write the validated SARIF log",
    )
    args = parser.parse_args()

    gate = run_lint()
    assert gate.returncode == 0, (
        f"repro lint src/ exited {gate.returncode}:\n{gate.stdout}"
    )

    sarif = run_lint("--format", "sarif")
    assert sarif.returncode == 0, (
        f"--format sarif exited {sarif.returncode}:\n{sarif.stderr}"
    )
    payload = json.loads(sarif.stdout)

    from repro.lint import validate_sarif

    errors = validate_sarif(payload)
    assert not errors, "SARIF failed validation:\n" + "\n".join(errors)

    run = payload["runs"][0]
    catalog = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    suppressed = 0
    for result in run["results"]:
        assert result["ruleId"] in catalog
        for suppression in result.get("suppressions", ()):
            assert suppression["kind"] == "inSource", result
            assert suppression.get("justification"), (
                f"suppressed finding without a justification: {result}"
            )
            suppressed += 1

    with open(args.out, "w") as handle:
        handle.write(sarif.stdout)
    print(
        f"lint-self ok: {len(run['results'])} result(s),"
        f" {suppressed} suppressed with justifications,"
        f" {len(catalog)} rules in catalog"
    )


if __name__ == "__main__":
    main()
