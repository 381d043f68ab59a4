"""CI lint-self smoke: the SARIF ``repro lint`` emits for ``src/`` is valid.

One run of the real CLI, ``repro lint src/ --format sarif``; the script
asserts that it exits 0, that the log passes
``repro.lint.validate_sarif``, that every result's ``ruleId`` resolves
into the rule catalog, and that every suppressed finding carries an
``inSource`` suppression whose ``justification`` is the directive's
reason (GitHub's code-scanning UI shows these as suppressed, with the
reason, instead of open alerts).

The lint gate itself is ``repro lint src/`` (the step before this one
in CI's ``lint`` job) and ``tests/lint/test_self_clean.py`` at tier 1;
this script does not run it a second time.

Usage::

    python scripts/ci_lint_self.py [--out lint.sarif]
"""

import argparse
import json
import subprocess
import sys


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="lint.sarif",
        help="where to write the validated SARIF log",
    )
    args = parser.parse_args()

    sarif = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src/", "--format", "sarif"],
        capture_output=True,
        text=True,
    )
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
