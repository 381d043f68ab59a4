"""Deterministic workload specifications.

A :class:`Workload` is a list of *rounds*; the invocations of one round
run concurrently, rounds run sequentially (the runner waits for
quiescence between rounds).  A workload whose every round contains at
most one write therefore yields a write-sequential run — the class of
runs the paper's WS properties constrain.

Write values are generated unique (``w<writer>-<round>``), which the
register consistency checkers rely on.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import InvalidConfig


@dataclass(frozen=True)
class Invocation:
    """One high-level invocation by a writer or reader.

    ``client`` is ``("writer", index)`` or ``("reader", index)``.
    """

    client: "Tuple[str, int]"
    name: str
    args: tuple = ()

    @property
    def is_write(self) -> bool:
        return self.name == "write"


@dataclass
class Workload:
    """A sequence of concurrent rounds."""

    rounds: "List[List[Invocation]]" = field(default_factory=list)
    description: str = ""

    @property
    def n_writes(self) -> int:
        return sum(
            1 for rnd in self.rounds for inv in rnd if inv.is_write
        )

    @property
    def n_reads(self) -> int:
        return sum(
            1 for rnd in self.rounds for inv in rnd if not inv.is_write
        )

    @property
    def writer_indices(self) -> "List[int]":
        seen = []
        for rnd in self.rounds:
            for inv in rnd:
                kind, index = inv.client
                if kind == "writer" and index not in seen:
                    seen.append(index)
        return sorted(seen)

    @property
    def reader_indices(self) -> "List[int]":
        seen = []
        for rnd in self.rounds:
            for inv in rnd:
                kind, index = inv.client
                if kind == "reader" and index not in seen:
                    seen.append(index)
        return sorted(seen)

    @property
    def is_write_sequential(self) -> bool:
        return all(
            sum(1 for inv in rnd if inv.is_write) <= 1 for rnd in self.rounds
        )


def write_sequential_workload(
    k: int,
    writes_per_writer: int = 2,
    reads_between: int = 1,
    n_readers: int = 1,
) -> Workload:
    """Writers take turns; readers read after every write.

    Produces a write-sequential run: one write per round, followed by a
    round of concurrent reads.
    """
    rounds: "List[List[Invocation]]" = []
    for sequence in range(writes_per_writer):
        for writer in range(k):
            value = f"w{writer}-{sequence}"
            rounds.append([Invocation(("writer", writer), "write", (value,))])
            for _ in range(reads_between):
                rounds.append(
                    [
                        Invocation(("reader", reader), "read")
                        for reader in range(n_readers)
                    ]
                )
    return Workload(
        rounds=rounds,
        description=(
            f"write-sequential k={k} x{writes_per_writer},"
            f" {n_readers} readers"
        ),
    )


def concurrent_workload(
    k: int,
    n_rounds: int = 4,
    n_readers: int = 2,
    seed: int = 0,
) -> Workload:
    """Rounds of concurrent writes (every writer) and reads.

    Not write-sequential — used to exercise wait-freedom and, for the
    atomic emulations, linearizability under concurrency.
    """
    rng = random.Random(seed)
    rounds: "List[List[Invocation]]" = []
    for round_index in range(n_rounds):
        round_ops = [
            Invocation(
                ("writer", writer), "write", (f"w{writer}-{round_index}",)
            )
            for writer in range(k)
        ]
        for reader in range(n_readers):
            round_ops.append(Invocation(("reader", reader), "read"))
        rng.shuffle(round_ops)
        rounds.append(round_ops)
    return Workload(
        rounds=rounds,
        description=f"concurrent k={k} rounds={n_rounds} seed={seed}",
    )


def read_heavy_workload(
    k: int,
    n_writes: int = 3,
    reads_per_write: int = 5,
    n_readers: int = 3,
) -> Workload:
    """Few writes, many concurrent reads (write-sequential)."""
    rounds: "List[List[Invocation]]" = []
    for sequence in range(n_writes):
        writer = sequence % k
        rounds.append(
            [Invocation(("writer", writer), "write", (f"w{writer}-{sequence}",))]
        )
        for _ in range(reads_per_write):
            rounds.append(
                [
                    Invocation(("reader", reader), "read")
                    for reader in range(n_readers)
                ]
            )
    return Workload(
        rounds=rounds,
        description=f"read-heavy k={k} writes={n_writes}",
    )


class ZipfKeys:
    """Seeded Zipfian sampler over a fixed key universe.

    Key ``i`` (0-based popularity rank) is drawn with probability
    proportional to ``1 / (i + 1) ** s`` — the skewed popularity profile
    KV traffic is conventionally modelled with (a few hot keys take most
    of the traffic; ``s`` around 1 matches the classic YCSB-style
    distributions).  Sampling inverts the precomputed CDF with a binary
    search, so a draw is O(log universe).
    """

    def __init__(self, universe: int, s: float = 1.1, seed: int = 0):
        if universe <= 0:
            raise InvalidConfig("need at least one key")
        if s < 0:
            raise InvalidConfig("Zipf exponent must be non-negative")
        self.universe = universe
        self.s = s
        self._rng = random.Random(seed)
        weights = [1.0 / (rank + 1) ** s for rank in range(universe)]
        total = sum(weights)
        self._cdf: "List[float]" = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float round-down

    def sample(self) -> int:
        """Draw a key rank (0 = most popular)."""
        return bisect.bisect_left(self._cdf, self._rng.random())

    def key(self, prefix: str = "key") -> str:
        """Draw a key name, ``<prefix>-<rank>``."""
        return f"{prefix}-{self.sample()}"
