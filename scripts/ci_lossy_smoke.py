"""CI lossy-transport smoke: safety, cross-process reproducibility, and
a pinned fate stream.

Runs a small seeded fault-injection scenario (drops + reorder + one
partition/heal cycle) on :class:`~repro.net.lossy.LossyTransport` and
asserts (a) the captured history is linearizable under every seed, (b)
the run replays byte-identically **across process boundaries**, and (c)
each seed's history digest and transport counters equal the values
pinned in :data:`PINNED` for ``FATE_STREAM`` 2 — so a change that moves
the fate stream fails here even when every process agrees with every
other.  Such a change must bump ``FATE_STREAM`` and re-record the pins.

The cross-process part is the point: fault fates are integer
arithmetic on the message's ``(seed, op id, leg, server)`` key — no
``hash()``, no ``random`` — so they must not depend on the per-process
str-hash salt (``PYTHONHASHSEED``).  Re-running inside one interpreter
would share a single salt and could never detect a regression that
sneaks a hashed string into the key — so the driver execs each
measurement in a fresh ``sys.executable`` child and compares the
digests the children print.  ``FATE_STREAM`` is printed and stored in
the uploaded ``lossy-smoke.json``.

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

#: the fate stream the pins below were recorded under.
PINNED_STREAM = 2
#: seed -> (history sha256, transport counters) of :func:`run_one`.
PINNED = {
    0: (
        "d9c68b3a477648f3c359acbc30bb8fca72d8cc369b9ea5462b93262cb7b48c63",
        dict(
            requests_sent=36, responses_sent=33, dropped_requests=2,
            dropped_responses=0, duplicate_requests=0,
            duplicate_responses=0, held_by_partition=18, reordered=13,
            flushes=63, in_flight=3,
        ),
    ),
    1: (
        "b9d7b9325d21d359ee1573e17c87fc46f325d5165f71b1eee5ed70a662309c1b",
        dict(
            requests_sent=36, responses_sent=33, dropped_requests=3,
            dropped_responses=2, duplicate_requests=0,
            duplicate_responses=0, held_by_partition=18, reordered=16,
            flushes=60, in_flight=0,
        ),
    ),
    2: (
        "b3f100950af2ab0e1bc207424d3e166a66b6638885b6f1a34680fe8c2430bf8b",
        dict(
            requests_sent=21, responses_sent=20, dropped_requests=1,
            dropped_responses=3, duplicate_requests=0,
            duplicate_responses=0, held_by_partition=10, reordered=10,
            flushes=33, in_flight=0,
        ),
    ),
}

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
    """One seed, twice, in two fresh interpreters: must replay, and
    must match its pin."""
    first = run_in_subprocess(seed)
    second = run_in_subprocess(seed)
    assert first["history_sha256"] == second["history_sha256"], (
        f"seed {seed} did not replay identically across processes:"
        f" {first['history_sha256']} != {second['history_sha256']}"
    )
    assert first["stats"] == second["stats"], (
        f"seed {seed}: transport counters diverged across processes"
    )
    assert FATE_STREAM == PINNED_STREAM, (
        f"FATE_STREAM is {FATE_STREAM} but the pins were recorded under"
        f" {PINNED_STREAM}: re-record PINNED"
    )
    digest, stats = PINNED[seed]
    assert first["history_sha256"] == digest, (
        f"seed {seed}: history {first['history_sha256']} != pinned {digest}"
    )
    assert first["stats"] == stats, (
        f"seed {seed}: transport counters {first['stats']} != pinned {stats}"
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
