#!/usr/bin/env python
"""CI smoke: two concurrent workers drain one shared queue file.

The distributed-queue contract, checked end-to-end over real processes:

1. ``repro queue create`` enqueues two grids (TH1 and TH2) into one
   sqlite file — 10 cells total.
2. Two ``repro queue work`` subprocesses run *concurrently* against
   that file.
3. Afterwards: every cell is ``done``, none ``failed``, every cell was
   claimed exactly once (``attempts == 1`` — zero duplicate
   executions), and every claim belongs to one of the two workers
   (disjoint by construction: a cell has one owner column, attempts==1
   proves no second worker ever re-claimed it).
4. ``repro queue export`` output is byte-identical to the serial
   in-process rendering of the same experiments.

Writes ``queue-smoke.json`` with the evidence for the artifact upload.
Exits non-zero on any violation.
"""

import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def repro(*argv):
    process = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
    )
    if process.returncode != 0:
        sys.exit(
            f"`repro {' '.join(argv)}` exited {process.returncode}:\n"
            f"{process.stdout}{process.stderr}"
        )
    return process.stdout


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="queue-smoke-")
    db = os.path.join(workdir, "q.db")

    repro("queue", "create", "--db", db, "TH1",
          "--params", '{"k": 3, "f": 1}')
    repro("queue", "create", "--db", db, "TH2")

    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "queue", "work", "--db", db,
             "--worker-id", name],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for name in ("w1", "w2")
    ]
    logs = {}
    for name, worker in zip(("w1", "w2"), workers):
        out, _ = worker.communicate(timeout=600)
        logs[name] = out
        if worker.returncode != 0:
            sys.exit(f"worker {name} exited {worker.returncode}:\n{out}")

    status = json.loads(repro("queue", "status", "--db", db, "--json"))
    failures = []
    counts = status["counts"]
    if counts["open"] or counts["claimed"] or counts["failed"]:
        failures.append(f"queue not cleanly drained: {counts}")
    duplicates = [
        cell["cell_id"] for cell in status["cells"]
        if cell["attempts"] != 1
    ]
    if duplicates:
        failures.append(f"cells claimed more than once: {duplicates}")
    strangers = [
        cell["cell_id"] for cell in status["cells"]
        if cell["owner"] not in ("w1", "w2")
    ]
    if strangers:
        failures.append(f"cells owned by neither worker: {strangers}")

    from repro.experiments import run_experiment

    golden = (
        run_experiment("TH1", k=3, f=1).render()
        + "\n\n"
        + run_experiment("TH2").render()
        + "\n"
    )
    exported = repro("queue", "export", "--db", db)
    if exported != golden:
        failures.append(
            "queue export differs from the serial rendering:\n"
            f"--- serial ---\n{golden}--- queue ---\n{exported}"
        )

    per_worker = {}
    for cell in status["cells"]:
        per_worker[cell["owner"]] = per_worker.get(cell["owner"], 0) + 1
    report = {
        "cells": len(status["cells"]),
        "counts": counts,
        "cells_per_worker": per_worker,
        "duplicate_claims": duplicates,
        "export_byte_identical": exported == golden,
        "failures": failures,
    }
    with open("queue-smoke.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)

    print(f"queue smoke: {len(status['cells'])} cells, split {per_worker}")
    for name in ("w1", "w2"):
        summary = [
            line for line in logs[name].splitlines()
            if line.startswith("worker ")
        ]
        print(summary[-1] if summary else f"worker {name}: no summary")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("queue smoke: drained cleanly, export byte-identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
