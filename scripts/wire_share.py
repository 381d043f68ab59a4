"""The wire codec's share of ``kv_sock_read``'s saturated window.

The socket transport codes whole segments (one outbox flush, one TCP
read) with the binary segment functions of ``repro.net.wire``, which it
imports by name, so the harness's ``--trace`` run, whose
``spans.TracedCodec`` wraps only the per-frame calls, no longer sees
socket-path frames: codec time counts under ``net.transport``.  This
restores the split.  It runs the workload in this process through the
harness's own worker (``benchmarks.e2e.worker.run``: one warm-up epoch,
then ``--epochs`` measured ones, untraced), which builds and drives the
service through ``benchmarks.e2e.workloads``.  The harness files are not
edited: for this process only, the four segment functions the transport
module calls are replaced by timed wrappers, and
``_KVEpoch.closed_slice`` (the body of every ``sat`` slice) by one that
marks the window.  Codec calls outside a ``sat`` slice (set-up,
unloaded, open-loop load) are not counted.

Output is one JSON line: the workload, seed and epochs, the seconds
inside the ``sat`` slices, and per segment function its calls, frames,
seconds and share of the ``sat`` seconds, plus the four together.  The
shares include the timing wrappers' own cost; the seconds are this
host's.

Usage (the harness package puts this checkout's ``src`` first on
``sys.path``)::

    python scripts/wire_share.py [--seed 11] [--epochs 1]
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from benchmarks.e2e import worker, workloads  # noqa: E402

from repro.net import asyncio_transport  # noqa: E402

#: the one workload whose sat slices run the codec.
WORKLOAD = "kv_sock_read"
SEGMENT_FUNCTIONS = (
    "encode_binary_requests",
    "decode_binary_requests",
    "encode_binary_responses",
    "decode_binary_responses",
)


class _Window:
    """Seconds inside the ``sat`` slices, and each segment function's
    calls, frames and seconds inside them."""

    def __init__(self) -> None:
        self.open = False
        self.sat_s = 0.0
        self.calls = dict.fromkeys(SEGMENT_FUNCTIONS, 0)
        self.frames = dict.fromkeys(SEGMENT_FUNCTIONS, 0)
        self.seconds = dict.fromkeys(SEGMENT_FUNCTIONS, 0.0)

    def slice(self, closed_slice):
        def timed_slice(*args, **kwargs):
            self.open = True
            start = time.perf_counter()
            try:
                return closed_slice(*args, **kwargs)
            finally:
                self.sat_s += time.perf_counter() - start
                self.open = False

        return timed_slice

    def codec(self, name: str, function):
        encodes = name.startswith("encode")

        def timed(items):
            if not self.open:
                return function(items)
            start = time.perf_counter()
            result = function(items)
            self.seconds[name] += time.perf_counter() - start
            self.calls[name] += 1
            self.frames[name] += len(items) if encodes else len(result[0])
            return result

        return timed


def measure(seed: int, epochs: int) -> dict:
    window = _Window()
    originals = {
        name: getattr(asyncio_transport, name) for name in SEGMENT_FUNCTIONS
    }
    closed_slice = workloads._KVEpoch.closed_slice
    for name, function in originals.items():
        setattr(asyncio_transport, name, window.codec(name, function))
    workloads._KVEpoch.closed_slice = window.slice(closed_slice)
    args = argparse.Namespace(
        workload=WORKLOAD, seed=seed, epochs=epochs, trace=0, spans=0, smoke=0
    )
    try:
        result = worker.run(args)
    finally:
        workloads._KVEpoch.closed_slice = closed_slice
        for name, function in originals.items():
            setattr(asyncio_transport, name, function)
    if not result["correct"]:
        raise SystemExit(f"wire_share: checks failed: {result['checks_failed']}")
    codec_s = sum(window.seconds.values())
    return {
        "workload": WORKLOAD,
        "seed": seed,
        "epochs": epochs,
        "sat_s": round(window.sat_s, 3),
        "functions": {
            name: {
                "calls": window.calls[name],
                "frames": window.frames[name],
                "s": round(window.seconds[name], 4),
                "share": round(window.seconds[name] / window.sat_s, 4),
            }
            for name in SEGMENT_FUNCTIONS
        },
        "codec_s": round(codec_s, 4),
        "codec_share": round(codec_s / window.sat_s, 4),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--epochs", type=int, default=1)
    args = parser.parse_args()
    print(json.dumps(measure(args.seed, args.epochs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
