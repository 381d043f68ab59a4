"""Commands of the end-to-end benchmark (``run.py`` is the entry point)."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Any, Dict, List

from benchmarks.e2e import ROOT, spec

#: generous: a run takes about 20 s (30 s traced); this only stops a hang
WORKER_TIMEOUT_S = 170


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_worker(
    workload: str,
    seed: int,
    epochs: int,
    trace: bool,
    smoke: bool = False,
    spans: bool = False,
) -> "Dict[str, Any]":
    """Measure one workload in a fresh interpreter and return its result."""
    command = [
        sys.executable,
        "-m",
        "benchmarks.e2e.worker",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--epochs",
        str(epochs),
        "--trace",
        str(int(trace)),
        "--smoke",
        str(int(smoke)),
        "--spans",
        str(int(spans)),
    ]
    done = subprocess.run(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"worker for {workload} exited with {done.returncode}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def epochs_for(seconds: int) -> int:
    return max(1, seconds // spec.EPOCH_NOMINAL_S)


def _format(name: str, entry: "Dict[str, Any]") -> str:
    note = f"n={entry['n']}"
    if entry.get("supported") is False:
        note += ", fewer than 10 samples beyond it"
    return f"  {name:<44} {entry['value']:>14.6g} {spec.UNITS[name]:<6} ({note})"


def print_result(result: "Dict[str, Any]") -> None:
    conditions = result["conditions"]
    print(
        f"== {result['workload']}  seed={conditions['seed']}"
        f" epochs={conditions['epochs']} cpu={conditions['pinned_cpu']}"
        f" speed_factor={conditions['speed_factor']:.3f}"
        f" wall={result['wall_s']:.1f}s"
    )
    for name, entry in result["end_to_end"].items():
        print(_format(name, entry))
    for name in (m.name for m in spec.PER_LAYER):
        if name in result.get("per_layer", {}):
            print(_format(name, result["per_layer"][name]))
    if "trace" in result:
        unloaded = result["trace"]["unloaded"]
        print(
            f"  trace: unloaded {unloaded['mean_latency_ms']:.4f} ms ="
            f" layers {unloaded['layer_self_time_sum_ms']:.4f} ms: "
            + ", ".join(
                f"{layer} {ms:.4f}"
                for layer, ms in sorted(
                    unloaded["self_time_ms_by_layer"].items()
                )
            )
        )
    print(
        f"  attempted={result['attempted']} failed={result['failed']}"
        f" checks={'ok' if result['correct'] else 'FAILED'}"
    )
    for failure in result["checks_failed"]:
        print(f"  CHECK FAILED: {failure}")


def final_line(results: "List[Dict[str, Any]]", trace: bool) -> str:
    """The driver's line: end-to-end metrics, or per-layer ones with --trace."""
    section, table = (
        ("per_layer", spec.PER_LAYER) if trace else ("end_to_end", spec.END_TO_END)
    )
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        for metric in table:
            metrics[prefix + metric.name] = {
                "value": result[section][metric.name]["value"],
                "unit": metric.unit,
            }
    return json.dumps(
        {
            "correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": metrics,
        }
    )


def command_run(args) -> int:
    workloads = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)
    trace = bool(args.trace)
    results = []
    for workload in workloads:
        result = run_worker(
            workload,
            args.seed,
            epochs_for(args.seconds),
            trace,
            smoke=args.smoke,
            spans=bool(args.out) and trace,
        )
        print_result(result)
        results.append(result)
    if args.out:
        document = {
            "commit": commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "results": results,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(document, indent=1) + "\n")
    print(final_line(results, trace))
    return 0 if all(result["correct"] for result in results) else 1


def main(argv=None, description: str = "") -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "mode", nargs="?", choices=("run", "repeat"), default="run"
    )
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=int,
        default=spec.DEFAULT_SECONDS,
        help="measured time per workload; an epoch takes about"
        f" {spec.EPOCH_NOMINAL_S} s, so this buys seconds // {spec.EPOCH_NOMINAL_S}"
        " epochs (after one warm-up epoch)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        const=1,
        default=0,
        help="also run traced epochs and the layer probes, print the"
        " per-layer metrics (bare flag, or 0/1)",
    )
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the tests"
    )
    parser.add_argument("--sets", type=int, default=2, help="repeat: sets")
    parser.add_argument("--runs", type=int, default=5, help="repeat: runs per set")
    args = parser.parse_args(argv)
    if args.mode == "repeat":
        from benchmarks.e2e.compare import command_repeat

        return command_repeat(args)
    return command_run(args)
