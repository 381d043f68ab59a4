"""A general linearizability (atomicity) checker.

Implements the classic Wing & Gong search with memoization (in the style
later refined by Lowe): a depth-first enumeration of linearization orders,
pruned by the real-time precedence relation and memoized on
``(set-of-linearized-ops, object-state)``.

Semantics of pending operations follow the paper's definition of a
linearization: a linearization contains **all complete** operations plus
**any subset** of the pending ones, each assigned a matching response.  A
pending operation therefore (a) may be omitted entirely, and (b) if
included, is allowed to produce any result the spec yields.

Exponential in the worst case, as the problem demands (checking
linearizability is NP-complete); our histories are small and heavily
constrained, so in practice this is fast.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.consistency.specs import SequentialSpec
from repro.sim.history import HistoryOp


def _precedence_masks(ops: "Sequence[HistoryOp]") -> "List[int]":
    """For each op, a bitmask of the ops that must be linearized before it.

    Those are the ops that returned before it was invoked: a prefix of
    the complete ops in return order, found by bisection.
    """
    returned = sorted(
        (op.return_time, j) for j, op in enumerate(ops) if op.complete
    )
    times = [time for time, _ in returned]
    prefixes = [0]
    for _, j in returned:
        prefixes.append(prefixes[-1] | 1 << j)
    return [prefixes[bisect_left(times, op.invoke_time)] for op in ops]


def find_linearization(
    ops: "Sequence[HistoryOp]",
    spec: SequentialSpec,
) -> "Optional[List[HistoryOp]]":
    """Return a valid linearization of ``ops``, or ``None`` if none exists.

    ``ops`` is an arbitrary iterable of high-level operations (not
    necessarily a full history — the WS checkers pass the subsequence of
    writes plus one read).
    """
    ops = list(ops)
    n = len(ops)
    if n == 0:
        return []
    masks = _precedence_masks(ops)
    complete_mask = 0
    for i, op in enumerate(ops):
        if op.complete:
            complete_mask |= 1 << i

    if complete_mask == 0:
        return []  # nothing complete: every pending op may be omitted

    # Memoize failed (done-set, state-key) pairs.
    failed: "set[Tuple[int, Hashable]]" = set()
    order: "List[HistoryOp]" = []
    # Depth-first over an explicit stack, one frame per linearized
    # operation — a key's history runs to thousands of operations, far
    # past the interpreter's recursion limit.  A frame is
    # [done-set, state, memo key, next op index to try].
    state = spec.initial_state()
    frames: "List[list]" = [[0, state, (0, spec.state_key(state)), 0]]
    while frames:
        frame = frames[-1]
        done, state, key, start = frame
        for i in range(start, n):
            bit = 1 << i
            if done & bit:
                continue
            if masks[i] & ~done:
                continue  # some predecessor not yet linearized
            op = ops[i]
            new_state, result = spec.apply(state, op.name, op.args)
            if op.complete and result != op.result:
                continue  # observed result contradicts this order
            new_done = done | bit
            if new_done & complete_mask == complete_mask:
                # All complete ops linearized; remaining pending ops may
                # be omitted, so we are finished.
                order.append(op)
                return order
            new_key = (new_done, spec.state_key(new_state))
            if new_key in failed:
                continue
            order.append(op)
            frame[3] = i + 1
            frames.append([new_done, new_state, new_key, 0])
            break
        else:
            failed.add(key)
            frames.pop()
            if frames:
                order.pop()
    return None


def is_linearizable(
    ops: "Sequence[HistoryOp]",
    spec: SequentialSpec,
) -> bool:
    """True iff the operations admit a linearization under ``spec``."""
    return find_linearization(ops, spec) is not None
