"""Experiment KV — the sharded service under open-loop Zipfian load.

Drives ``repro loadgen`` end to end and records the report as
``benchmarks/BENCH_kv.json``: a 3-shard KV namespace, each shard an
independent emulated register fleet served by its own process
(``--transport spawn``: one ``repro serve`` subprocess per replica,
real sockets, real SIGKILL), with thousands of concurrent sessions
offering Poisson arrivals over a Zipfian key universe while the fault
gauntlet runs — partition, heal, replica crash (SIGKILL), restart.

The numbers that matter are the *ratios*, which are machine-portable
and gated by ``scripts/ci_bench_smoke.py``:

* ``sustained_fraction`` — completed / offered operations.  An
  open-loop generator never slows down for the service, so any
  sustained deficit means the cluster fell behind or lost operations
  across the gauntlet.
* ``audit.ok_fraction`` — per-key consistency (linearizability for the
  quorum substrates) over every key's full history, faults included.

Throughput and p50/p95/p99 latency are recorded as context; absolute
numbers are not comparable across machines.

The fleet runs n=4, f=1: a SIGKILLed replica restarts *empty*, and
amnesia consumes failure budget beyond the crash-stop allowance — every
read quorum must intersect every write quorum in a non-amnesiac server,
hence n >= 2f+2 (``repro loadgen`` refuses the gauntlet at n=2f+1).

``BENCH_KV_SMOKE=1`` shrinks the run (shorter duration, fewer
sessions) but keeps the same topology and gauntlet.
"""

import json
import os

from repro.analysis.tables import render_table
from repro.cli import main as repro_main

ARTIFACT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_kv.json")

SMOKE = os.environ.get("BENCH_KV_SMOKE", "") not in ("", "0")

DURATION = 3.0 if SMOKE else 8.0
RATE = 150.0 if SMOKE else 400.0
SESSIONS = 300 if SMOKE else 1200
KEYS = 32 if SMOKE else 64

#: the open-loop generator must complete nearly everything it offers
#: across the gauntlet (the drain window lets in-flight ops finish).
MIN_SUSTAINED = 0.99


class TestShardedKVLoad:
    def test_loadgen_gauntlet_records_artifact(self):
        code = repro_main(
            [
                "loadgen",
                "--transport", "spawn",
                "--codec", "binary",
                "--scenario", "gauntlet",
                "--shards", "3",
                "-n", "4",
                "-f", "1",
                "--rate", str(RATE),
                "--duration", str(DURATION),
                "--sessions", str(SESSIONS),
                "--keys", str(KEYS),
                "--seed", "7",
                "--min-sustained", str(MIN_SUSTAINED),
                "--out", ARTIFACT_PATH,
            ]
        )
        assert code == 0, "loadgen exited nonzero (audit or sustain gate)"

        with open(ARTIFACT_PATH, encoding="utf-8") as handle:
            report = json.load(handle)

        assert report["benchmark"] == "kv_loadgen"
        assert report["params"]["sessions"] == SESSIONS
        assert report["transport"] == "spawn"
        # All four gauntlet faults fired while traffic was flowing.
        assert [s["name"] for s in report["scenarios"]] == [
            "partition", "heal", "crash", "restart",
        ]
        assert report["sustained_fraction"] >= MIN_SUSTAINED
        assert report["audit"]["all_ok"], report["audit"]
        assert report["completed_ops"] > 0
        latency = report["latency_ms"]
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]

        print(
            render_table(
                ["metric", "value"],
                [
                    ["offered ops", report["offered_ops"]],
                    ["completed ops", report["completed_ops"]],
                    ["sustained", f"{report['sustained_fraction']:.4f}"],
                    ["throughput ops/s", report["throughput_ops_s"]],
                    ["p50 ms", latency["p50"]],
                    ["p95 ms", latency["p95"]],
                    ["p99 ms", latency["p99"]],
                    [
                        "audit ok",
                        f"{report['audit']['ok']}/{report['audit']['keys']}",
                    ],
                ],
                title=(
                    f"Sharded KV: 3 shards x (n=4, f=1), {SESSIONS}"
                    f" sessions, spawn transport, fault gauntlet"
                ),
            )
        )
