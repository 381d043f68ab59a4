"""``run.py repeat``: is the benchmark steady enough to judge a change by?

Runs ``--sets`` sets of ``--runs`` runs of the same code, the sets
alternating run by run (so a slow stretch of the host hits all of them),
run ``r`` of every set with seed ``--seed + r``.  Per workload and
end-to-end metric it prints each set's quartiles and median, the spread
the driver computes ((q3 - q1) / median, from
``statistics.quantiles(values, n=4)``), (max - min) / median, and how much
worse each later set's median is than the first's, all against the
metric's bound from ``BENCHMARK.json``.  Runs with the same seed must
also agree exactly on the exact counts.  Exits non-zero when a bound is
exceeded or a count moved.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List

from benchmarks.e2e import ROOT, spec
from benchmarks.e2e.cli import epochs_for, run_worker

def bounds_from_benchmark_json() -> "Dict[str, Dict[str, Any]]":
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        document = json.load(handle)
    return {metric["name"]: metric for metric in document["end_to_end"]}


def worse_by(first: float, later: float, better: str) -> float:
    """Share of ``first`` by which ``later`` is worse (negative: better)."""
    change = (later - first) / first
    return -change if better == "higher" else change


def command_repeat(args) -> int:
    workloads = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    bounds = bounds_from_benchmark_json()
    epochs = epochs_for(args.seconds)
    #: results[workload][set][run]
    results: "Dict[str, List[List[Dict[str, Any]]]]" = {
        workload: [[] for _ in range(args.sets)] for workload in workloads
    }
    for run in range(args.runs):
        for chosen in range(args.sets):
            for workload in workloads:
                result = run_worker(workload, args.seed + run, epochs, False)
                results[workload][chosen].append(result)
                print(
                    f"run {run} set {chosen} {workload}"
                    f" speed={result['conditions']['speed_factor']:.3f}: "
                    + " ".join(
                        f"{name}={entry['value']:.5g}"
                        for name, entry in result["end_to_end"].items()
                    ),
                    flush=True,
                )

    problems: "List[str]" = []
    for workload in workloads:
        sets = results[workload]
        print(f"== {workload}")
        for metric in spec.END_TO_END:
            bound = bounds[metric.name]["bound"]
            medians = []
            for chosen, runs in enumerate(sets):
                values = [r["end_to_end"][metric.name]["value"] for r in runs]
                q1, middle, q3 = statistics.quantiles(values, n=4)
                medians.append(middle)
                iqr = (q3 - q1) / middle
                span = (max(values) - min(values)) / middle
                print(
                    f"  {metric.name:<22} set {chosen}: q1={q1:.6g}"
                    f" median={middle:.6g} q3={q3:.6g}  iqr/median={iqr:.4f}"
                    f" range/median={span:.4f}  (bound {bound})"
                )
                if metric.name != "setup_s" and iqr > bound:
                    problems.append(
                        f"{workload} {metric.name} set {chosen}: spread"
                        f" {iqr:.4f} exceeds the bound {bound}"
                    )
                if span > bound:
                    problems.append(
                        f"{workload} {metric.name} set {chosen}: range"
                        f" {span:.4f} exceeds the bound {bound}"
                    )
            for chosen in range(1, len(medians)):
                worse = worse_by(medians[0], medians[chosen], metric.better)
                print(
                    f"  {metric.name:<22} set {chosen} vs set 0: median"
                    f" worse by {worse:+.4f}"
                )
                if worse > bound:
                    problems.append(
                        f"{workload} {metric.name}: set {chosen}'s median is"
                        f" worse than set 0's by {worse:.4f} (bound {bound})"
                    )
        for run in range(args.runs):
            counts = [runs[run]["exact_counts"] for runs in sets]
            if any(other != counts[0] for other in counts[1:]):
                problems.append(
                    f"{workload}: exact counts of seed {args.seed + run}"
                    f" differ between sets: {counts}"
                )
        failed = [
            (chosen, run)
            for chosen, runs in enumerate(sets)
            for run, result in enumerate(runs)
            if not result["correct"]
        ]
        if failed:
            problems.append(f"{workload}: checks failed in (set, run) {failed}")

    for problem in problems:
        print(f"NOT STEADY: {problem}")
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0
