"""The collector's share of one end-to-end workload, split in two.

``benchmarks/e2e`` runs a full collection before every timed window
(and after every epoch), so a ``gc.callbacks`` total mixes two costs:
the harness's own explicit ``gc.collect()`` calls between windows, and
the automatic collections the run's allocations trigger inside them.
Only the second is the program's.  This runs one workload in this
process through the harness's own worker (``benchmarks.e2e.worker.run``:
one warm-up epoch, then ``--epochs`` measured ones, untraced) and times
every collection with ``gc.callbacks``, attributing a collection to the
harness when it runs inside one of the harness's ``gc.collect()`` calls.
The harness files are not edited: for this process only, the ``gc``
name inside its modules is bound to a stand-in whose ``collect`` is
flagged.

Output is one JSON line: the workload, seed and epochs, the worker's
wall seconds, per generation the automatic collections and their
seconds, the explicit calls and their seconds, and the process's peak
resident set (``peak_rss_mb``, ``ru_maxrss`` as the harness reads it),
so one command shows both what the collector costs and the footprint
it works on.  The counts depend on the host only through the run's
length; the seconds are this host's.

Usage (the harness package puts this checkout's ``src`` first on
``sys.path``)::

    python scripts/gc_share.py [--workload kv_sim_read] [--seed 11] [--epochs 1]
"""

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from benchmarks.e2e import spec, timing, worker  # noqa: E402


class _Clock:
    """``gc.callbacks`` hook: seconds and counts per collection kind."""

    def __init__(self) -> None:
        self.explicit = False
        self.auto_count = [0, 0, 0]
        self.auto_s = [0.0, 0.0, 0.0]
        self.explicit_count = 0
        self.explicit_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._started
        if self.explicit:
            self.explicit_s += elapsed
        else:
            generation = info["generation"]
            self.auto_count[generation] += 1
            self.auto_s[generation] += elapsed


class _FlaggedGC:
    """Stands in for the ``gc`` module inside the harness: ``collect``
    is timed as explicit, everything else is the real module."""

    def __init__(self, clock: _Clock) -> None:
        self._clock = clock

    def __getattr__(self, name: str):
        return getattr(gc, name)

    def collect(self, *args):
        clock = self._clock
        clock.explicit = True
        clock.explicit_count += 1
        try:
            return gc.collect(*args)
        finally:
            clock.explicit = False


def measure(workload: str, seed: int, epochs: int) -> dict:
    clock = _Clock()
    flagged = _FlaggedGC(clock)
    modules = (worker, timing)
    for module in modules:
        module.gc = flagged
    args = argparse.Namespace(
        workload=workload, seed=seed, epochs=epochs, trace=0, spans=0, smoke=0
    )
    gc.callbacks.append(clock)
    try:
        result = worker.run(args)
    finally:
        gc.callbacks.remove(clock)
        for module in modules:
            module.gc = gc
    if not result["correct"]:
        raise SystemExit(f"gc_share: checks failed: {result['checks_failed']}")
    return {
        "workload": workload,
        "seed": seed,
        "epochs": epochs,
        "wall_s": round(result["wall_s"], 3),
        "auto_collections": clock.auto_count,
        "auto_s": [round(seconds, 4) for seconds in clock.auto_s],
        "auto_total_s": round(sum(clock.auto_s), 4),
        "explicit_collects": clock.explicit_count,
        "explicit_s": round(clock.explicit_s, 4),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="kv_sim_read", choices=spec.WORKLOAD_NAMES
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--epochs", type=int, default=1)
    args = parser.parse_args()
    print(json.dumps(measure(args.workload, args.seed, args.epochs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
