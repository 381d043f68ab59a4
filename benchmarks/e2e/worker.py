"""One workload, measured in this process; the result goes to stdout as JSON.

``run.py`` starts one worker per workload so that each has a fresh
interpreter, its own ``ru_maxrss``, and one CPU to itself.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from benchmarks.e2e import spec
from benchmarks.e2e.probes import run_probes
from benchmarks.e2e.spans import Tracer
from benchmarks.e2e.timing import Normaliser, median, percentile, tail_supported
from benchmarks.e2e.workloads import Samples, make_workload

TRACED_EPOCHS = 2


def pin_to_one_cpu() -> "Optional[int]":
    """Pin this process (and the threads it starts later) to the last CPU it
    is allowed on.  The socket path has two threads; left to the scheduler
    they bounce between CPUs and the latency is bistable, on one CPU it is
    steady and faster.  Skipped where the platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


def _entry(value: float, n: int = 1) -> "Dict[str, Any]":
    return {"value": value, "n": n}


def _median(values: "List[float]") -> "Dict[str, Any]":
    return _entry(median(values), len(values))


def _pctl(values: "List[float]", fraction: float) -> "Dict[str, Any]":
    ordered = sorted(values)
    return {
        "value": percentile(ordered, fraction),
        "n": len(ordered),
        "supported": tail_supported(len(ordered), fraction),
    }


def end_to_end(samples: Samples, peak_rss_mb: float) -> "Dict[str, Dict[str, Any]]":
    return {
        "sat_ops_s": _median(samples.sat_rates),
        "unloaded_ms": _median([ms for _, ms in samples.unloaded_ms]),
        "p50_ms": _median(samples.load_latency_ms),
        "setup_s": _median(samples.setup_s),
        "peak_rss_mb": _entry(peak_rss_mb),
        "base_objects_per_key": _entry(
            samples.facts["base_objects_per_key"], len(samples.epoch_counts)
        ),
        "completed_frac": _entry(
            1.0 - samples.failed / samples.attempted, samples.attempted
        ),
        "audit_ok_frac": _entry(samples.audits_ok / samples.audits, samples.audits),
    }


def exact_counts(counts: "Dict[str, int]") -> "Dict[str, float]":
    """The per-operation counts of the closed-loop phases: what a seeded
    simulated run repeats exactly."""
    ops = counts["ops"]
    kops = ops / 1000.0

    def per_kop(*names: str) -> float:
        return sum(counts.get(name, 0) for name in names) / kops

    return {
        "sim.kernel.steps_per_op": counts["steps"] / ops,
        "core.lowlevel_ops_per_op": counts["lowlevel"] / ops,
        "net.lossy.dropped_per_kop": per_kop("dropped_requests", "dropped_responses"),
        "net.lossy.duplicated_per_kop": per_kop(
            "duplicate_requests", "duplicate_responses"
        ),
        "net.lossy.reordered_per_kop": per_kop("reordered"),
        "net.lossy.held_per_kop": per_kop("held_by_partition"),
        "net.lossy.flushes_per_kop": per_kop("flushes"),
    }


def per_layer(
    workload,
    untraced: Samples,
    traced: Samples,
    tracer: Tracer,
    probes: "Dict[str, float]",
    norm: Normaliser,
    wall_s: float,
) -> "Dict[str, Dict[str, Any]]":
    counts = untraced.total_counts()
    traced_counts = traced.total_counts()
    unloaded = [ms for _, ms in untraced.unloaded_ms]
    references = len(norm.reference_times)
    facts = untraced.facts
    metrics: "Dict[str, Dict[str, Any]]" = {
        "apps.shard.loadgen.p99_ms": _pctl(untraced.load_latency_ms, 0.99),
        "apps.shard.loadgen.p90_ms": _pctl(untraced.load_latency_ms, 0.90),
        "apps.shard.loadgen.late_p99_ms": _pctl(untraced.load_late_ms, 0.99),
        "apps.shard.loadgen.idle_frac": _median(untraced.load_idle_frac),
        "apps.shard.service.step_calls_per_op": _entry(
            counts["step_calls"] / counts["sat_ops"], counts["sat_ops"]
        ),
        "apps.shard.service.sat_p90_ms": _pctl(traced.sat_latency_ms, 0.90),
        "apps.shard.fleet.build_ms": _median(untraced.build_ms),
        "apps.shard.fleet.preload_ms": _median(untraced.preload_ms),
        "apps.shard.fleet.clients": _entry(facts["clients"]),
        "apps.shard.fleet.base_objects": _entry(facts["base_objects"]),
        "apps.shard.fleet.shard_imbalance": _entry(facts["shard_imbalance"]),
        "core.get_ms_p50": _median(
            [ms for kind, ms in untraced.unloaded_ms if kind == "get"]
        ),
        "core.put_ms_p50": _median(
            [ms for kind, ms in untraced.unloaded_ms if kind == "put"]
        ),
        "net.wire.frames_per_op": _entry(
            counts["frames"] / counts["ops"], counts["ops"]
        ),
        "net.asyncio_transport.dropped_frames": _entry(facts["dropped_frames"]),
        "consistency.audit_ms_per_kop": _entry(
            untraced.audit_s * 1e3 / (untraced.audited_ops / 1000.0),
            untraced.audited_ops,
        ),
        "consistency.max_key_history": _entry(untraced.max_history),
        "harness.speed_factor": _entry(norm.speed_factor(), references),
        "harness.speed_spread": _entry(norm.speed_spread(), references),
        "harness.raw_sat_ops_s": _median(untraced.sat_raw_rates),
        "harness.wall_s": _entry(wall_s),
    }
    for name, value in exact_counts(counts).items():
        metrics[name] = _entry(value, counts["ops"])
    for name, value in probes.items():
        metrics[name] = _entry(value)

    # From the spans of the traced epochs.  Spans are raw wall time, so
    # times (not shares) take the traced epochs' own factor.
    factor = traced.sat_s / traced.sat_raw_s
    sat_ops = traced_counts["sat_ops"]
    own = {phase: tracer.self_times(phase) for phase in ("unloaded", "sat")}
    metrics["apps.shard.service.submit_us_per_op"] = _entry(
        own["sat"].get("submit", 0.0) * factor / sat_ops * 1e6, sat_ops
    )
    # the KV workloads step through service.step, the kernel one through
    # Kernel.run; each has spans of one of the two names only
    step_s = tracer.totals("step", "sat")[1] + tracer.totals("run", "sat")[1]
    metrics["apps.shard.service.step_share"] = _entry(
        step_s / traced.sat_raw_s, sat_ops
    )
    kernel_s = sum(
        times.get(name, 0.0)
        for times in own.values()
        for name in ("run_to_quiescence", "run")
    )
    metrics["sim.kernel.steps_per_s"] = _entry(
        traced_counts["steps"] / (kernel_s * factor), traced_counts["steps"]
    )
    flush_share = 0.0
    if workload.transport == "asyncio":
        flush_share = (
            tracer.totals("flush_idle", "unloaded")[1]
            / tracer.totals("op", "unloaded")[1]
        )
    metrics["net.asyncio_transport.flush_idle_share"] = _entry(
        flush_share, traced_counts["ops"]
    )
    metrics["harness.trace_overhead_frac"] = _entry(
        median([ms for _, ms in traced.unloaded_ms]) / median(unloaded) - 1.0,
        len(traced.unloaded_ms),
    )
    return metrics


def trace_summary(tracer: Tracer) -> "Dict[str, Any]":
    """Self time per layer, and whether the layers under one unloaded
    operation add up to its latency (caller's thread only: the socket
    transport's event loop works while the caller waits in flush_idle)."""
    caller = threading.current_thread().name
    ops, op_s = tracer.totals("op", "unloaded")
    if not ops:  # the kernel workload: enqueue ("submit") then Kernel.run
        ops, op_s = tracer.totals("run", "unloaded")
        op_s += tracer.totals("submit", "unloaded")[1]
    layers = tracer.by_layer("unloaded", caller)
    layers.pop("harness", None)  # the slice span: what is outside the operations
    return {
        "self_time_s_by_layer": tracer.by_layer(),
        "self_time_s_by_span": tracer.self_times(),
        "unloaded": {
            "operations": ops,
            "mean_latency_ms": op_s / ops * 1e3,
            "layer_self_time_sum_ms": sum(layers.values()) / ops * 1e3,
            "self_time_ms_by_layer": {
                layer: seconds / ops * 1e3 for layer, seconds in layers.items()
            },
        },
        "spans": len(tracer.spans),
    }


def run(args) -> "Dict[str, Any]":
    started = time.perf_counter()
    cpu = pin_to_one_cpu()
    workload = make_workload(args.workload, args.seed, smoke=args.smoke)
    sizes = workload.sizes
    norm = Normaliser()
    checks: "List[str]" = []

    # epoch 0 twice: once discarded as warm-up, once measured.  On the
    # simulated workloads the two must produce identical counts: that is
    # the replay check ("two runs of one seed") at no extra cost.
    warm = Samples()
    if not args.smoke:
        workload.run_epoch(0, norm, warm, sizes)
        gc.collect()
    untraced = Samples()
    for epoch in range(args.epochs):
        workload.run_epoch(epoch, norm, untraced, sizes)
        gc.collect()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if warm.epoch_counts and args.workload in spec.EXACT_WORKLOADS:
        first, again = warm.epoch_counts[0], untraced.epoch_counts[0]
        if first != again:
            moved = sorted(k for k in first if first[k] != again.get(k))
            checks.append(
                f"replay of epoch 0 changed the exact counts: {moved}"
                f" ({first} != {again})"
            )
    checks.extend(warm.failures)
    checks.extend(untraced.failures)
    if untraced.audits_ok != untraced.audits:
        checks.append(
            f"{untraced.audits - untraced.audits_ok} of {untraced.audits}"
            " audits failed"
        )

    result: "Dict[str, Any]" = {
        "workload": args.workload,
        "conditions": {
            "seed": args.seed,
            "epochs": args.epochs,
            "smoke": args.smoke,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "pinned_cpu": cpu,
            "speed_factor": norm.speed_factor(),
            "hottest_key_ops": untraced.hottest_key,
        },
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "end_to_end": end_to_end(untraced, peak_rss_mb),
        "exact_counts": (
            exact_counts(untraced.total_counts())
            if args.workload in spec.EXACT_WORKLOADS
            else {}
        ),
    }

    if args.trace:
        tracer = Tracer()
        traced = Samples()
        traced_sizes = sizes.traced()
        for epoch in range(TRACED_EPOCHS):
            workload.run_epoch(epoch, norm, traced, traced_sizes, tracer)
            gc.collect()
        checks.extend(traced.failures)
        probes = run_probes(norm, args.seed)
        result["per_layer"] = per_layer(
            workload,
            untraced,
            traced,
            tracer,
            probes,
            norm,
            time.perf_counter() - started,
        )
        result["trace"] = trace_summary(tracer)
        if args.spans:
            result["trace"]["rows"] = tracer.to_rows()
        unloaded = result["trace"]["unloaded"]
        gap = abs(
            unloaded["layer_self_time_sum_ms"] / unloaded["mean_latency_ms"] - 1.0
        )
        if gap > 0.10:
            checks.append(
                f"layer self times sum to {unloaded['layer_self_time_sum_ms']:.4f}"
                f" ms, traced unloaded latency is"
                f" {unloaded['mean_latency_ms']:.4f} ms"
            )

    result["checks_failed"] = checks
    result["correct"] = not checks
    result["wall_s"] = time.perf_counter() - started
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", type=int, default=0)
    parser.add_argument("--smoke", type=int, default=0)
    args = parser.parse_args(argv)
    result = run(args)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
