"""CI lossy-transport smoke: safety + cross-process reproducibility.

Runs a small seeded fault-injection scenario (drops + reorder + one
partition/heal cycle) on :class:`~repro.net.lossy.LossyTransport` and
asserts (a) the captured history is linearizable under every seed and
(b) the run replays byte-identically **across process boundaries**.

The cross-process part is the point: fault fates are integer
arithmetic on the message's ``(seed, op id, leg, server)`` key — no
``hash()``, no ``random`` — so they must not depend on the per-process
str-hash salt (``PYTHONHASHSEED``).  Re-running inside one interpreter
would share a single salt and could never detect a regression that
sneaks a hashed string into the key — so the driver execs each
measurement in a fresh ``sys.executable`` child and compares the
digests the children print.  The digests are comparable across CI runs
for as long as ``FATE_STREAM`` (printed, and stored in the uploaded
``lossy-smoke.json``) stays the same.

On failure the driver prints the seed and the one command that replays
it.

Usage::

    python scripts/ci_lossy_smoke.py            # driver: all seeds, twice each
    python scripts/ci_lossy_smoke.py --seed 2   # child: one run, JSON on stdout
"""

import argparse
import hashlib
import json
import subprocess
import sys

from repro.consistency.linearizability import is_linearizable
from repro.consistency.specs import RegisterSpec
from repro.core.emulation import EmulationSpec
from repro.net import (
    Delay,
    Drop,
    FaultPlan,
    LinkFaults,
    Partition,
    Reorder,
    TransportConfig,
)
from repro.net.faults import FATE_STREAM

SEEDS = (0, 1, 2)

PLAN = FaultPlan(
    default=LinkFaults(
        drop=Drop(0.1),
        delay=Delay(0, 10),
        reorder=Reorder(0.3, window=8),
    ),
    partitions=(Partition(start=10, heal=80, servers=(1,)),),
)


def run_one(seed: int) -> dict:
    """One seeded lossy run: history digest + transport counters."""
    spec = EmulationSpec.make(
        "abd", n=3, f=1, seed=seed,
        transport=TransportConfig.lossy(PLAN, seed=seed),
    )
    emu = spec.build()
    writer, reader = emu.add_writer(0), emu.add_reader()
    for i in range(3):
        writer.enqueue("write", f"v{i}")
        reader.enqueue("read")
        emu.system.run_to_quiescence(max_steps=200_000)
    ops = emu.history.all_ops()
    assert is_linearizable(ops, RegisterSpec(None)), (
        f"seed {seed}: history not linearizable under faults"
    )
    blob = json.dumps(emu.history.to_dicts(), sort_keys=True).encode()
    return {
        "history_sha256": hashlib.sha256(blob).hexdigest(),
        "stats": emu.kernel.transport.stats(),
    }


def run_in_subprocess(seed: int) -> dict:
    """Run one seed in a fresh interpreter (fresh hash salt)."""
    result = subprocess.run(
        [sys.executable, __file__, "--seed", str(seed)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def check_seed(seed: int) -> dict:
    """One seed, twice, in two fresh interpreters: must replay."""
    first = run_in_subprocess(seed)
    second = run_in_subprocess(seed)
    assert first["history_sha256"] == second["history_sha256"], (
        f"seed {seed} did not replay identically across processes:"
        f" {first['history_sha256']} != {second['history_sha256']}"
    )
    assert first["stats"] == second["stats"], (
        f"seed {seed}: transport counters diverged across processes"
    )
    return first


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="child mode: run this one seed and print JSON",
    )
    parser.add_argument(
        "--report", default="lossy-smoke.json",
        help="driver mode: where to write the JSON report",
    )
    args = parser.parse_args()

    if args.seed is not None:
        print(json.dumps(run_one(args.seed)))
        return

    report = {"plan": repr(PLAN), "fate_stream": FATE_STREAM, "seeds": {}}
    totals = {}
    print(f"lossy smoke: FATE_STREAM={FATE_STREAM}, seeds {SEEDS}")
    for seed in SEEDS:
        print(f"seed {seed} ...", flush=True)
        try:
            report["seeds"][str(seed)] = first = check_seed(seed)
        except (AssertionError, subprocess.CalledProcessError) as error:
            print(getattr(error, "stderr", None) or error, file=sys.stderr)
            sys.exit(
                f"seed {seed} failed (FATE_STREAM={FATE_STREAM}); replay"
                f" with: python scripts/ci_lossy_smoke.py --seed {seed}"
            )
        for key, value in first["stats"].items():
            totals[key] = totals.get(key, 0) + value
    assert totals["held_by_partition"] > 0
    assert totals["dropped_requests"] + totals["dropped_responses"] > 0
    assert totals["reordered"] > 0
    report["totals"] = totals
    with open(args.report, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(json.dumps(totals, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
