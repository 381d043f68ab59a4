"""The repository's end-to-end benchmark: one command, every metric.

    python benchmarks/e2e/run.py [--workload W] [--seed N] [--trace] [--out FILE]
    python benchmarks/e2e/run.py repeat --sets 2 --runs 5

Each workload runs in its own fresh subprocess pinned to one CPU.  The
command prints every metric by name and unit, checks the outputs, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``
(end-to-end metrics; the per-layer ones with ``--trace``).  It exits
non-zero, after printing, when a check failed.  See README.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Run as a script, sys.path[0] is this directory: put the repository root
# there instead, so the harness imports as the ``benchmarks.e2e`` package.
sys.path[0] = str(ROOT)
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no src/repro under {ROOT}: nothing to measure")

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(description=__doc__))
