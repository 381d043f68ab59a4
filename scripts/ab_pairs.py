"""Alternating A/B pairs of the end-to-end benchmark: parent against change.

Checks ``--parent REF`` out into a throwaway directory (``git archive``
of REF, so the repository's own ``.git`` gains no worktree entry and a
killed run leaves nothing registered), then runs ``--pairs`` pairs of
``benchmarks/e2e/run.py --workload W --seconds S --seed N``: one run in
the parent's tree and one in this checkout, pair ``i`` parent-first when
``i`` is even and change-first when it is odd, so a slow stretch of the
host hits both sides.  The directory is removed at exit, on SIGTERM
too.

Output is one JSON line: the workload, seed, seconds and pair count, the
parent's commit, whether every run's checks held, and per end-to-end
metric (the last JSON line ``run.py`` prints) its direction from this
checkout's ``BENCHMARK.json``, both sides' values, medians and quartiles
(``statistics.quantiles(values, n=4)``, as ``run.py repeat`` computes
the spread), the relative gain of the change's median (positive is
better), the pairs the change won and the ties.

Usage::

    python scripts/ab_pairs.py --parent REF --workload W --pairs N --seed S
        [--seconds 15] [--scratch DIR]
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: one benchmark run: (side, tree) -> its final JSON line, parsed
Runner = Callable[[str, Path], Dict[str, Any]]


def order(pair: int) -> "Tuple[str, str]":
    """The sides of pair ``pair`` in the order they run."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def quartiles(values: "List[float]") -> "List[float]":
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarize(
    runs: "List[Dict[str, Dict[str, Any]]]", better: "Dict[str, str]"
) -> "Dict[str, Dict[str, Any]]":
    """Per metric, from ``runs`` (one ``{"parent": line, "change":
    line}`` per pair): both sides' values, medians and quartiles, the
    gain of the change's median and the pairs it won or tied."""
    summary: "Dict[str, Dict[str, Any]]" = {}
    for name in runs[0]["change"]["metrics"]:
        parent = [run["parent"]["metrics"][name]["value"] for run in runs]
        change = [run["change"]["metrics"][name]["value"] for run in runs]
        sign = 1 if better.get(name, "higher") == "higher" else -1
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        summary[name] = {
            "better": "higher" if sign > 0 else "lower",
            "parent": parent,
            "change": change,
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "gain": (
                sign * (change_median - parent_median) / parent_median
                if parent_median
                else 0.0
            ),
            "won": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
            "ties": sum(1 for p, c in zip(parent, change) if c == p),
        }
    return summary


def run_pairs(
    pairs: int, runner: Runner, trees: "Dict[str, Path]"
) -> "List[Dict[str, Dict[str, Any]]]":
    runs = []
    for pair in range(pairs):
        run = {}
        for side in order(pair):
            run[side] = runner(side, trees[side])
        runs.append(run)
    return runs


def benchmark_runner(workload: str, seed: int, seconds: int) -> Runner:
    def run(side: str, tree: Path) -> "Dict[str, Any]":
        done = subprocess.run(
            [
                sys.executable, "benchmarks/e2e/run.py",
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
            ],
            cwd=tree,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = json.loads(done.stdout.splitlines()[-1])
        print(
            f"{side}: "
            + " ".join(
                f"{name}={entry['value']:.5g}"
                for name, entry in line["metrics"].items()
            ),
            file=sys.stderr,
            flush=True,
        )
        return line

    return run


def export(ref: str, into: Path) -> str:
    """Extract ``ref``'s tree into ``into``; returns its commit."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT, check=True, stdout=subprocess.PIPE,
    ).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def directions() -> "Dict[str, str]":
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        document = json.load(handle)
    return {metric["name"]: metric["better"] for metric in document["end_to_end"]}


def main(argv=None, runner: "Runner | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument(
        "--scratch", help="directory to hold the parent's tree (default: temp)"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    scratch = Path(tempfile.mkdtemp(prefix="ab-pairs-", dir=args.scratch))
    try:
        parent_commit = export(args.parent, scratch / "parent")
        if runner is None:
            runner = benchmark_runner(args.workload, args.seed, args.seconds)
        runs = run_pairs(
            args.pairs, runner, {"parent": scratch / "parent", "change": ROOT}
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    correct = all(line["correct"] for run in runs for line in run.values())
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "pairs": args.pairs,
                "parent": args.parent,
                "parent_commit": parent_commit,
                "correct": correct,
                "metrics": summarize(runs, directions()),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    # A terminated run unwinds through main's finally: no tree is left.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.exit(main())
