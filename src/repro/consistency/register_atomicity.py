"""Fast register atomicity (linearizability) test.

For *write-sequential* histories with distinct write values the test is
exact and O(n log n): the write order is fixed by real time, each read
must return a value in its read window
(:class:`repro.consistency.ws.ReadWindows`), and atomicity additionally
forbids old-new inversions: no read may return an older write than one
a read preceding it returned.

Other histories (concurrent writes, repeated values, a write of the
initial value) fall back to the general linearizability search of
:mod:`repro.consistency.linearizability`, which is exact but exponential
in the worst case.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Any

from repro.consistency.linearizability import is_linearizable
from repro.consistency.specs import RegisterSpec, hashable_key
from repro.consistency.ws import ReadWindows
from repro.sim.history import History


def is_register_history_atomic(
    history: History, initial_value: Any = None
) -> bool:
    """True iff the high-level history is linearizable as a register.

    Requires distinct write values on the fast (write-sequential) path so
    a read's result identifies the write it read from.  Pending reads are
    unconstrained; a pending final write may or may not take effect.
    """
    windows = ReadWindows(history, initial_value)
    # Unhashable payloads (lists, dicts) are keyed by repr so the fast
    # path still works for them.
    index_of = {
        hashable_key(w.args[0]): index for index, w in enumerate(windows.writes)
    }
    if (
        not history.is_write_sequential()
        or len(index_of) < len(windows.writes)
        or hashable_key(initial_value) in index_of
    ):
        # Results do not name the write they read from: search exactly.
        return is_linearizable(history.all_ops(), RegisterSpec(initial_value))

    picks = []  # (read, index of the write it read; -1: the initial value)
    for read in history.reads:
        if not read.complete:
            continue
        if not windows.admits(read):
            return False
        index = (
            -1
            if read.result == initial_value
            else index_of[hashable_key(read.result)]
        )
        picks.append((read, index))
    by_return = sorted(picks, key=lambda pick: pick[0].return_time)
    returns = [read.return_time for read, _ in by_return]
    # newest[i]: the newest write among the first i reads to return.
    newest = list(accumulate((j for _, j in by_return), max, initial=-1))
    return all(
        index >= newest[bisect_left(returns, read.invoke_time)]
        for read, index in picks
    )
