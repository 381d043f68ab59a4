"""Experiment QUE — queue overhead over the direct engine path.

Runs the same simulating grid (B1 sharded over update_counts) through
the direct serial engine and through a drained single-worker SQLite
queue, and tabulates wall-clock, kernel steps and per-cell queue
overhead.  The qualitative claims: both paths produce byte-identical
tables, kernel steps are identical (the queue adds bookkeeping, not
simulation), and the numbers land in ``benchmarks/BENCH_queue.json``
for trajectory tracking.

Absolute overhead is *not* asserted — it is sqlite fsync latency, which
varies wildly across CI runner disks.  The artifact records it.

``BENCH_QUEUE_SMOKE=1`` shrinks the grid (CI smoke mode).
"""

import json
import os
import time

from repro.analysis.tables import render_table
from repro.exec import run_experiment_grid

SMOKE = os.environ.get("BENCH_QUEUE_SMOKE", "") not in ("", "0")
UPDATES = (4, 8) if SMOKE else (4, 8, 16, 32, 64)
KWARGS = {"update_counts": UPDATES}

ARTIFACT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_queue.json")


def _timed(tmp_path, backend, **extra):
    start = time.perf_counter()
    merged, report = run_experiment_grid(
        "B1", KWARGS, backend=backend, **extra
    )
    return merged, report, time.perf_counter() - start


def test_queue_overhead_vs_direct_engine(tmp_path):
    direct, direct_report, direct_secs = _timed(tmp_path, "local")
    queued, queued_report, queued_secs = _timed(
        tmp_path, "queue", queue_path=tmp_path / "bench.db"
    )

    cells = len(direct_report.outcomes)
    overhead = queued_secs - direct_secs
    rows = [
        ["direct", cells, direct_report.total_steps, f"{direct_secs:.3f}",
         "-"],
        ["queue", cells, queued_report.total_steps, f"{queued_secs:.3f}",
         f"{1000.0 * overhead / cells:.1f}"],
    ]
    print(
        render_table(
            ["path", "cells", "kernel steps", "seconds",
             "overhead ms/cell"],
            rows,
            title=f"QUE: queue vs direct on B1, updates in {list(UPDATES)}",
        )
    )
    artifact = {
        "grid": {"experiment": "B1", "update_counts": list(UPDATES)},
        "smoke": SMOKE,
        "direct": {
            "seconds": round(direct_secs, 6),
            "steps": direct_report.total_steps,
        },
        "queue": {
            "seconds": round(queued_secs, 6),
            "steps": queued_report.total_steps,
        },
        "overhead_ms_per_cell": round(1000.0 * overhead / cells, 3),
    }
    with open(ARTIFACT_PATH, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)

    assert queued.render() == direct.render()
    assert queued_report.total_steps == direct_report.total_steps > 0
    assert not (direct_report.failed or queued_report.failed)
