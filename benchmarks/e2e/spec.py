"""Names, units, directions and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repository root carries the same tables for the
driver; ``test_harness.py`` asserts the two agree, so a name is defined
once here and checked once there.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

DEFAULT_SEED = 7

#: a run of ``--seconds S`` measures ``S // EPOCH_NOMINAL_S`` epochs (after
#: one discarded warm-up epoch); sizes below make an epoch about this long.
EPOCH_NOMINAL_S = 3
DEFAULT_SECONDS = 15


class Workload(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which an end-to-end metric may get
    #: worse; ``None`` for per-layer metrics, which are not gated.
    bound: "float | None" = None


WORKLOADS: "List[Workload]" = [
    Workload(
        "kv_sim_read",
        "max-register ABD, 3 shards, in-process delivery, 90% gets: service,"
        " fleet, kernel and protocol do all the work; no codec, no socket",
    ),
    Workload(
        "kv_sock_read",
        "the same traffic over self-hosted asyncio sockets with the binary"
        " codec, 1 shard: wire and socket dominate, the kernel does little",
    ),
    Workload(
        "kv_lossy_faults",
        "CAS substrate, 3 shards over LossyTransport with seeded delay,"
        " reorder, duplicates, drops and a healing partition, 50% puts",
    ),
    Workload(
        "kernel_ws_medium",
        "no KV: Algorithm 2 over 25 plain registers (k=5, n=6, f=2) driven"
        " round by round through Kernel.run; bypasses service, wire, sockets",
    ),
]

#: The count metrics repeat exactly, so any change is a regression; their
#: bound is the smallest one that still reads as "a share of the median".
_EXACT = 0.001

END_TO_END: "List[Metric]" = [
    Metric("sat_ops_s", "1/s", "higher", 0.10),
    Metric("unloaded_ms", "ms", "lower", 0.10),
    Metric("p50_ms", "ms", "lower", 0.20),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("base_objects_per_key", "count", "lower", _EXACT),
    Metric("completed_frac", "frac", "higher", _EXACT),
    Metric("audit_ok_frac", "frac", "higher", _EXACT),
]

PER_LAYER: "List[Metric]" = [
    # the open-loop driver (the harness's twin of run_loadgen)
    Metric("apps.shard.loadgen.p99_ms", "ms", "lower"),
    Metric("apps.shard.loadgen.p90_ms", "ms", "lower"),
    Metric("apps.shard.loadgen.late_p99_ms", "ms", "lower"),
    Metric("apps.shard.loadgen.idle_frac", "frac", "higher"),
    # admission and stepping above the kernel
    Metric("apps.shard.service.submit_us_per_op", "us", "lower"),
    Metric("apps.shard.service.step_calls_per_op", "count", "lower"),
    Metric("apps.shard.service.step_share", "frac", "lower"),
    Metric("apps.shard.service.sat_p90_ms", "ms", "lower"),
    # what set-up builds
    Metric("apps.shard.fleet.build_ms", "ms", "lower"),
    Metric("apps.shard.fleet.preload_ms", "ms", "lower"),
    Metric("apps.shard.fleet.clients", "count", "lower"),
    Metric("apps.shard.fleet.base_objects", "count", "lower"),
    Metric("apps.shard.fleet.shard_imbalance", "ratio", "lower"),
    # the stepping loops
    Metric("sim.kernel.steps_per_op", "count", "lower"),
    Metric("sim.kernel.steps_per_s", "1/s", "higher"),
    Metric("sim.kernel.batched_steps_per_s", "1/s", "higher"),
    Metric("sim.kernel.dispatch_steps_per_s", "1/s", "higher"),
    Metric("sim.kernel.run_steps_per_s", "1/s", "higher"),
    # the protocols (abd / cas_maxreg / ws_register)
    Metric("core.lowlevel_ops_per_op", "count", "lower"),
    Metric("core.us_per_step", "us", "lower"),
    Metric("core.get_ms_p50", "ms", "lower"),
    Metric("core.put_ms_p50", "ms", "lower"),
    # the codecs
    Metric("net.wire.encode_us_per_frame", "us", "lower"),
    Metric("net.wire.decode_us_per_frame", "us", "lower"),
    Metric("net.wire.bytes_per_frame", "B", "lower"),
    Metric("net.wire.frames_per_op", "count", "lower"),
    Metric("net.wire.json_encode_us_per_frame", "us", "lower"),
    # real sockets
    Metric("net.asyncio_transport.socket_ms_per_op", "ms", "lower"),
    Metric("net.asyncio_transport.flush_idle_share", "frac", "lower"),
    Metric("net.asyncio_transport.dropped_frames", "count", "lower"),
    # seeded faults
    Metric("net.lossy.dropped_per_kop", "count", "lower"),
    Metric("net.lossy.duplicated_per_kop", "count", "lower"),
    Metric("net.lossy.reordered_per_kop", "count", "lower"),
    Metric("net.lossy.held_per_kop", "count", "lower"),
    Metric("net.lossy.flushes_per_kop", "count", "lower"),
    Metric("net.lossy.neutral_ratio", "ratio", "higher"),
    # the checkers (outside every timed window)
    Metric("consistency.audit_ms_per_kop", "ms", "lower"),
    Metric("consistency.max_key_history", "count", "lower"),
    # the harness itself
    Metric("harness.speed_factor", "ratio", "higher"),
    Metric("harness.speed_spread", "ratio", "lower"),
    Metric("harness.raw_sat_ops_s", "1/s", "higher"),
    Metric("harness.trace_overhead_frac", "frac", "lower"),
    Metric("harness.wall_s", "s", "lower"),
]

#: workloads whose every step is simulated (no wall-clock input): their
#: per-operation counts (``worker.exact_counts``) must replay exactly.
EXACT_WORKLOADS = ("kv_sim_read", "kv_lossy_faults", "kernel_ws_medium")

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
UNITS: "Dict[str, str]" = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def benchmark_json() -> "Dict[str, object]":
    """The document ``BENCHMARK.json`` must hold (checked by the tests)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
