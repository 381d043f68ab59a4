"""Seeded inputs: a pure function of ``(seed, workload, phase, epoch)``.

Each phase draws from its own stream, so adding a phase (or resizing
one) never changes the operations of another.  The program under test
sees only the operations produced here — the key sampler is the
harness's own, not ``repro.workloads.generators.ZipfKeys``, so a change
to ``src/`` cannot change the traffic it is measured on.
"""

from __future__ import annotations

import bisect
import random
import zlib
from collections import Counter
from typing import Iterable, List, NamedTuple, Sequence

KEYS = 128
ZIPF_S = 0.6
SESSIONS = 64

#: ``is_linearizable`` recurses once per operation of a key's history and
#: Python stops it near 1000 frames; the benchmark's sizes keep the
#: hottest key well under this, and an input stream that would not is
#: refused before it runs.
HOT_KEY_LIMIT = 700

GET = "get"
PUT = "put"


class HotKeyError(ValueError):
    """An input stream would put too many operations on one key."""


class KVOp(NamedTuple):
    kind: str
    key: str
    session: int
    value: "str | None"


def stream(seed: int, workload: str, phase: str, epoch: int) -> random.Random:
    """The phase's private random stream (str seeds hash with SHA-512, so
    the stream is the same in every process)."""
    return random.Random(f"{seed}/{workload}/{phase}/{epoch}")


def epoch_seed(seed: int, workload: str, epoch: int) -> int:
    """Integer seed for the program's own schedulers and fault fates."""
    return zlib.crc32(f"{seed}/{workload}/{epoch}".encode())


def key_names() -> "List[str]":
    return [f"key-{index}" for index in range(KEYS)]


def _zipf_cdf(universe: int, s: float) -> "List[float]":
    weights = [1.0 / (rank + 1) ** s for rank in range(universe)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


_CDF = _zipf_cdf(KEYS, ZIPF_S)


def kv_ops(
    seed: int,
    workload: str,
    phase: str,
    epoch: int,
    count: int,
    read_fraction: float,
) -> "List[KVOp]":
    """``count`` gets/puts over Zipf-distributed keys.

    A put's value names its key, phase and position, so every value is
    written at most once per epoch and a get's result can be checked
    against the key it was read from.
    """
    rng = stream(seed, workload, phase, epoch)
    names = key_names()
    ops = []
    for index in range(count):
        key = names[bisect.bisect_left(_CDF, rng.random())]
        session = rng.randrange(SESSIONS)
        if rng.random() < read_fraction:
            ops.append(KVOp(GET, key, session, None))
        else:
            ops.append(KVOp(PUT, key, session, f"{key}={phase}.{index}"))
    return ops


def preload_ops() -> "List[KVOp]":
    """One put per key, so no get ever meets an unwritten key."""
    return [
        KVOp(PUT, key, index % SESSIONS, f"{key}=preload")
        for index, key in enumerate(key_names())
    ]


def value_belongs_to(key: str, value: object) -> bool:
    return isinstance(value, str) and value.startswith(key + "=")


def poisson_arrivals(
    seed: int,
    workload: str,
    phase: str,
    epoch: int,
    rate: float,
    duration: float,
) -> "List[float]":
    """Due times (reference seconds from the slice's start) of a Poisson
    process of ``rate`` per second, up to ``duration``."""
    rng = stream(seed, workload, phase, epoch)
    times, now = [], rng.expovariate(rate)
    while now < duration:
        times.append(now)
        now += rng.expovariate(rate)
    return times


def check_hot_key(phases: "Iterable[Sequence[KVOp]]") -> int:
    """Operations on the busiest key of an epoch; raises before the
    consistency checker would run out of stack on it."""
    counts = Counter(op.key for ops in phases for op in ops)
    hottest = max(counts.values()) if counts else 0
    if hottest >= HOT_KEY_LIMIT:
        key = max(counts, key=counts.get)
        raise HotKeyError(
            f"{hottest} operations on {key!r} in one epoch; the"
            f" linearizability checker recurses once per operation and"
            f" the benchmark stops at {HOT_KEY_LIMIT} (shrink the slices"
            " or add epochs instead)"
        )
    return hottest


# -- kernel_ws_medium -----------------------------------------------------------


class RegisterOp(NamedTuple):
    client: int  # index into writers + readers
    name: str  # "write" | "read"
    value: "str | None"


def ws_rounds(
    seed: int,
    workload: str,
    phase: str,
    epoch: int,
    rounds: int,
    writers: int,
    readers: int,
) -> "List[List[RegisterOp]]":
    """Rounds of ``writers + readers`` concurrent operations with exactly
    one write each (a seeded writer), so the schedule stays
    write-sequential and WS-Regularity actually constrains the reads."""
    rng = stream(seed, workload, phase, epoch)
    clients = writers + readers
    plan = []
    for index in range(rounds):
        writer = rng.randrange(writers)
        plan.append(
            [
                RegisterOp(c, "write", f"w{epoch}.{phase}.{index}")
                if c == writer
                else RegisterOp(c, "read", None)
                for c in range(clients)
            ]
        )
    return plan


def ws_singles(
    seed: int,
    workload: str,
    phase: str,
    epoch: int,
    count: int,
    writers: int,
    readers: int,
) -> "List[RegisterOp]":
    """One operation at a time: a uniformly drawn client; a writer writes
    half the time."""
    rng = stream(seed, workload, phase, epoch)
    ops = []
    for index in range(count):
        client = rng.randrange(writers + readers)
        if client < writers and rng.random() < 0.5:
            ops.append(RegisterOp(client, "write", f"w{epoch}.{phase}.{index}"))
        else:
            ops.append(RegisterOp(client, "read", None))
    return ops
