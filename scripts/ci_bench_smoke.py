"""CI bench-regression smoke: ratio metrics must not regress >20%.

Runs the perf benchmarks (kernel hot path, transport seam, sharded-KV
loadgen) in their smoke modes and compares every *machine-portable*
metric against the checked-in ``BENCH_*.json`` artifacts.  Absolute steps/sec and ops/sec are not comparable across
machines, so only same-process ratios are checked — speedups of one
implementation over another measured in the same run:

* ``BENCH_kernel.json`` — per-config ``run_speedup`` /
  ``dispatch_speedup`` (``Kernel.run`` under Algorithm 2 and under a
  minimal protocol vs the from-scratch reference stepper);
* ``BENCH_transport.json`` — ``vs_baseline`` for the ``inproc`` and
  ``lossy-idle`` transports (``lossy-chaos`` does real per-message
  fault work and swings too much on shared runners to gate on);
* ``BENCH_kv.json`` — ``sustained_fraction`` (completed / offered ops
  across the fault gauntlet) and the per-key ``audit.ok_fraction``.
  Both are dimensionless fractions of the same run, recorded at 1.0;
  a consistency violation or lost operations fail the gate outright.

A metric fails the gate when the fresh smoke value drops below
``(1 - tolerance)`` of the recorded one; faster-than-recorded is never
an error.  In-process ratios gate at 20%.  The benchmarks rewrite
their artifact files as they run, so the recorded (golden) values are
loaded *first* and the files restored afterwards — the checked-in
numbers always reflect a full-mode run, never the smoke run this script
triggers.

Usage::

    python scripts/ci_bench_smoke.py [--report bench-smoke.json]
"""

import argparse
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO, "benchmarks")

#: dropping >20% below the recorded ratio fails the job (in-process).
TOLERANCE = 0.20
#: the KV fractions are correctness-shaped (recorded at 1.0); a small
#: allowance covers ops stranded by the bounded drain window on a
#: heavily loaded runner, nothing more.
KV_TOLERANCE = 0.02

#: bench module -> (artifact file, smoke env var, tolerance)
BENCHES = {
    "test_bench_kernel_hotpath.py": (
        "BENCH_kernel.json", "BENCH_KERNEL_SMOKE", TOLERANCE
    ),
    "test_bench_transport.py": (
        "BENCH_transport.json", "BENCH_TRANSPORT_SMOKE", TOLERANCE
    ),
    "test_bench_kv.py": (
        "BENCH_kv.json", "BENCH_KV_SMOKE", KV_TOLERANCE
    ),
}


def _ratio_metrics(artifact: dict) -> "dict[str, float]":
    """Flatten the machine-portable ratios out of one artifact."""
    metrics = {}
    name = artifact.get("benchmark", "")
    if name == "kernel_hotpath":
        for config, numbers in artifact["configs"].items():
            for key in ("run_speedup", "dispatch_speedup"):
                metrics[f"{config}.{key}"] = numbers[key]
    elif name == "transport_seam":
        for transport in ("inproc", "lossy-idle"):
            metrics[f"{transport}.vs_baseline"] = (
                artifact["transports"][transport]["vs_baseline"]
            )
    elif name == "kv_loadgen":
        metrics["kv.sustained_fraction"] = artifact["sustained_fraction"]
        metrics["kv.audit_ok_fraction"] = artifact["audit"]["ok_fraction"]
    else:
        raise SystemExit(f"unknown benchmark artifact: {name!r}")
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--report", default="bench-smoke.json",
        help="where to write the JSON comparison report",
    )
    args = parser.parse_args()

    report = {"benches": {}}
    regressions = []
    for module, (artifact_name, smoke_var, tolerance) in BENCHES.items():
        artifact_path = os.path.join(BENCH_DIR, artifact_name)
        with open(artifact_path, encoding="utf-8") as handle:
            golden_raw = handle.read()
        golden = _ratio_metrics(json.loads(golden_raw))

        env = dict(os.environ)
        env[smoke_var] = "1"
        env.setdefault(
            "PYTHONPATH", os.path.join(REPO, "src")
        )
        try:
            subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "pytest",
                    os.path.join(BENCH_DIR, module),
                    "-q",
                ],
                cwd=REPO,
                env=env,
                check=True,
            )
            with open(artifact_path, encoding="utf-8") as handle:
                fresh = _ratio_metrics(json.load(handle))
        finally:
            # the smoke run overwrote the artifact; the checked-in
            # numbers are the full-mode golden, put them back.
            with open(artifact_path, "w", encoding="utf-8") as handle:
                handle.write(golden_raw)

        rows = {"tolerance": tolerance}
        for key, recorded in sorted(golden.items()):
            measured = fresh[key]
            floor = recorded * (1.0 - tolerance)
            ok = measured >= floor
            rows[key] = {
                "recorded": recorded,
                "measured": measured,
                "floor": round(floor, 3),
                "ok": ok,
            }
            if not ok:
                regressions.append(
                    f"{module}: {key} measured {measured} <"
                    f" {floor:.3f} (recorded {recorded},"
                    f" tolerance {tolerance:.0%})"
                )
        report["benches"][module] = rows

    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    if regressions:
        raise SystemExit(
            "bench ratio regressions:\n  " + "\n  ".join(regressions)
        )
    print("bench smoke: all ratio metrics within tolerance")


if __name__ == "__main__":
    main()
