"""Timing rules: the reference chunk, windows cut into chunks, percentiles,
the scaled clock.

The host's speed is not constant: it drifts in stretches of seconds (a
fixed pure-Python loop took 21.6-35.1 ms per-second-median over 40 s when
this was sized) and it dips by 10-60 % for tens to hundreds of
milliseconds at a time (a busy sibling hyper-thread), neither of which
shows as steal or as lost CPU time.  So every timed window is cut into
*chunks* of about ``CHUNK_S`` of work, a fixed *reference chunk*
(dict/tuple/str churn, about 2 ms) runs between any two of them, and a
chunk's times are multiplied by ``REF_CHUNK_S / mean(the two adjacent
reference chunks)``.  A reported time therefore reads "on a host where
the reference chunk takes ``REF_CHUNK_S``"; a single reference chunk is a
noisy estimate, and the medians over the hundreds of chunks of a run take
that noise out again.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Iterator, List, NamedTuple, Sequence, Tuple

#: what one reference chunk is defined to take; all reported times are in
#: these seconds.  (It took about this long, pinned, on the 2-vCPU host the
#: benchmark was sized on.)
REF_CHUNK_S = 0.002
#: work between two reference chunks
CHUNK_S = 0.015

_REF_CHUNK_ITERATIONS = 12_000


def reference_chunk() -> float:
    """Run the reference work once; returns the seconds it took."""
    start = time.perf_counter()
    table = {}
    for i in range(_REF_CHUNK_ITERATIONS):
        table[i & 1023] = (i, str(i & 63))
    return time.perf_counter() - start


class Chunk(NamedTuple):
    """A stretch of a window: work units done, raw seconds, and the factor
    that turns raw seconds into reference seconds."""

    units: int
    raw_s: float
    factor: float

    @property
    def seconds(self) -> float:
        return self.raw_s * self.factor


class Window:
    """One timed window.  The body reports finished work through
    :meth:`done`; whenever ``CHUNK_S`` has passed the chunk is closed and a
    reference chunk runs before the next one starts."""

    def __init__(self, norm: "Normaliser"):
        self._norm = norm
        self.chunks: "List[Chunk]" = []
        self._units = 0
        self._reference = norm.reference()
        self._start = norm.clock()

    def done(self, units: int = 1) -> None:
        self._units += units
        now = self._norm.clock()
        if now - self._start >= CHUNK_S:
            self._close(now)

    def _close(self, now: float) -> None:
        reference = self._norm.reference()
        self.chunks.append(
            Chunk(
                self._units,
                now - self._start,
                REF_CHUNK_S / ((self._reference + reference) / 2.0),
            )
        )
        self._reference = reference
        self._units = 0
        self._start = self._norm.clock()

    def close(self) -> "List[Chunk]":
        if self._units:
            self._close(self._norm.clock())
        return self.chunks


class Normaliser:
    """Hands out windows and scaled clocks, and keeps every reference time.

    ``reference`` and ``clock`` are injectable so the rules can be tested
    on synthetic numbers.
    """

    def __init__(
        self,
        reference: "Callable[[], float]" = reference_chunk,
        clock: "Callable[[], float]" = time.perf_counter,
    ):
        self._reference = reference
        self.clock = clock
        self.reference_times: "List[float]" = []

    def reference(self) -> float:
        taken = self._reference()
        self.reference_times.append(taken)
        return taken

    def measure(
        self, body: "Callable[[Callable[[int], None]], object]"
    ) -> "Tuple[object, List[Chunk]]":
        """Run ``body(done)`` as one window; returns its value and chunks.

        A full collection first, so every window starts from the same
        collector state; the collector stays on inside the window.
        """
        gc.collect()
        window = Window(self)
        value = body(window.done)
        return value, window.close()

    def scaled_clock(self) -> "ScaledClock":
        gc.collect()
        return ScaledClock(self.reference, self.clock)

    def speed_factor(self) -> float:
        return REF_CHUNK_S / median(self.reference_times)

    def speed_spread(self) -> float:
        """p90 / p10 of the reference times seen: how much the host moved."""
        ordered = sorted(self.reference_times)
        return percentile(ordered, 0.90) / percentile(ordered, 0.10)


def total_seconds(chunks: "Sequence[Chunk]") -> float:
    return sum(chunk.seconds for chunk in chunks)


def scale_samples(
    samples: "Sequence[float]", chunks: "Sequence[Chunk]"
) -> "Iterator[float]":
    """Per-unit raw seconds (one sample per unit of work, in order), each
    multiplied by the factor of the chunk it fell in."""
    position = 0
    for chunk in chunks:
        for sample in samples[position : position + chunk.units]:
            yield sample * chunk.factor
        position += chunk.units


# -- order statistics ---------------------------------------------------------


def _rank(count: int, fraction: float) -> int:
    return min(count - 1, int(fraction * count))


def percentile(ordered: "Sequence[float]", fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), fraction)]


def median(values: "Sequence[float]") -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def tail_supported(count: int, fraction: float) -> bool:
    """A percentile is reported as such only with ten samples beyond it."""
    return count > 0 and count - 1 - _rank(count, fraction) >= 10


# -- the open loop's clock ----------------------------------------------------

_RECENT = 3


class ScaledClock:
    """Reference-time seconds since construction.

    Wall time is multiplied by the current factor (the median of the last
    three reference chunks, re-measured whenever the driver is idle and
    ``CHUNK_S`` has passed; the reference chunk's own time does not
    count), and idle stretches are skipped (``skip_to``) instead of slept
    through.  What an open-loop slice fixes is therefore the offered
    *utilisation* on a reference-speed host, not a wall-clock rate that a
    slow stretch could not keep up with.
    """

    def __init__(
        self,
        reference: "Callable[[], float]" = reference_chunk,
        raw: "Callable[[], float]" = time.perf_counter,
    ):
        self._reference = reference
        self._raw = raw
        self._recent: "List[float]" = []
        self._now = 0.0
        self.skipped = 0.0
        for _ in range(_RECENT):
            self._calibrate()

    def _calibrate(self) -> None:
        self._recent = (self._recent + [self._reference()])[-_RECENT:]
        self._factor = REF_CHUNK_S / median(self._recent)
        self._since = self._calibrated = self._raw()

    def __call__(self) -> float:
        return self._now + (self._raw() - self._since) * self._factor

    def skip_to(self, when: float) -> None:
        now = self()
        if when > now:
            self.skipped += when - now
            self._now, self._since = when, self._raw()

    def idle(self) -> None:
        """Nothing is in flight: a good moment to look at the host again."""
        if self._raw() - self._calibrated >= CHUNK_S:
            self._now = self()
            self._calibrate()


class OpenLoopResult(NamedTuple):
    latencies_s: "List[float]"  # completion stamp minus due time
    lateness_s: "List[float]"  # admission time minus due time
    idle_frac: float
    unfinished: int


def run_open_loop(
    due_times: "Sequence[float]",
    clock: ScaledClock,
    submit: "Callable[[int], bool]",
    pump: "Callable[[], Sequence[Tuple[int, float]]]",
    drain_limit_s: float = 10.0,
) -> OpenLoopResult:
    """Admit operation ``i`` when ``due_times[i]`` has passed, never waiting
    for earlier ones (``submit(i)`` is false when the system refused it);
    ``pump()`` advances the system and returns the ``(index, completion
    stamp)`` pairs that finished.

    Latency runs from the *due* time, so a stall is charged to every
    operation it delayed.  The slice ends when everything admitted has
    completed, or ``drain_limit_s`` after the last due time.
    """
    total = len(due_times)
    admitted = 0
    pending = 0
    latencies: "List[float]" = []
    lateness: "List[float]" = []
    give_up = (due_times[-1] if total else 0.0) + drain_limit_s
    now = clock()
    while admitted < total or pending:
        while admitted < total and due_times[admitted] <= now:
            if submit(admitted):
                pending += 1
            lateness.append(now - due_times[admitted])
            admitted += 1
        if pending:
            for index, stamp in pump():
                latencies.append(stamp - due_times[index])
                pending -= 1
        else:
            clock.idle()
            clock.skip_to(due_times[admitted])
        now = clock()
        if now > give_up:
            break
    return OpenLoopResult(
        latencies,
        lateness,
        clock.skipped / now if now > 0 else 0.0,
        pending + (total - admitted),
    )
