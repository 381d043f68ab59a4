"""Seeded network-fault injection behind the transport seam.

:class:`LossyTransport` runs a :class:`~repro.net.faults.FaultPlan`
between clients and servers: every request and response leg gets a
deterministic :class:`~repro.net.faults.MessageFate` (drop, delay,
reorder jitter, duplicate, partition hold) decided at send time from
the message's ``(seed, op id, leg, server)`` key alone, so the same
seed replays the same fates in any process.  The plan is resolved once,
at :meth:`~LossyTransport.bind`, into one entry per server — the
:class:`~repro.net.faults.ServerFaults` integers of
:meth:`~repro.net.faults.FaultPlan.compiled`, with this transport's seed
already folded into the key — so a send is one table lookup, one call of
:func:`~repro.net.faults.draw_fate` (the function
:meth:`~repro.net.faults.FaultPlan.fate` calls too, so the two cannot
draw different fates) and one heap push, and a server nothing can touch
costs the lookup only.  In-flight
messages sit in delivery heaps keyed by (due tick, send sequence); the
kernel pumps the heaps at the top of every step and, when nothing else
is enabled, force-flushes the earliest message — so every message that
is not dropped is *eventually* delivered (the fairness assumption under
which liveness may be asserted; see docs/MODEL.md).

Relative to the paper's model these are out-of-model stressors: the
kernel still executes one action per step and operations still take
effect at their respond step, but a request may reach its server late,
twice, or never.  Safety checkers must pass regardless; liveness only
holds for plans that preserve eventual delivery to ``n - f`` servers
(no drops beyond ``f``, partitions that heal).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Tuple

from repro.net.faults import (
    REQUEST,
    RESPONSE,
    FaultPlan,
    ServerFaults,
    draw_fate,
)
from repro.net.transport import Transport

#: counter names exposed by :meth:`LossyTransport.stats`.
COUNTERS = (
    "requests_sent",
    "responses_sent",
    "dropped_requests",
    "dropped_responses",
    "duplicate_requests",
    "duplicate_responses",
    "held_by_partition",
    "reordered",
    "flushes",
)
#: the per-leg counters, indexed by leg code (REQUEST, RESPONSE).
_SENT = ("requests_sent", "responses_sent")
_DROPPED = ("dropped_requests", "dropped_responses")
_DUPLICATED = ("duplicate_requests", "duplicate_responses")


class LossyTransport(Transport):
    """Deterministic lossy delivery driven by a :class:`FaultPlan`.

    ``seed`` and the plan fully determine every fault decision; the
    arrival *times* additionally depend on when the kernel pumps, which
    is itself a deterministic function of the scheduler seed — so a
    seeded run through this transport replays exactly.
    """

    active = True
    remote = False

    def __init__(self, plan: "FaultPlan" = None, seed: int = 0):
        super().__init__()
        self.plan = plan if plan is not None else FaultPlan()
        self.seed = seed
        self._send_seq = 0
        #: ids of the pending ops whose request has reached the server.
        self._arrived: "set[int]" = set()
        #: in-flight request legs: heap of (due tick, send seq, op).
        self._requests: "List[Tuple[int, int, Any]]" = []
        #: in-flight response legs: heap of (due tick, send seq, op).
        self._responses: "List[Tuple[int, int, Any]]" = []
        self.counters: "Dict[str, int]" = {name: 0 for name in COUNTERS}
        #: object index -> the plan compiled for the server hosting it
        #: and this seed (one shared ServerFaults per server), or None
        #: when no fault can ever touch that server.  Filled by bind().
        self._links: "Dict[int, Optional[ServerFaults]]" = {}

    def bind(self, kernel) -> None:
        super().bind(kernel)
        object_map = kernel.object_map
        per_server = {
            server_id: self.plan.compiled(server_id.index, self.seed)
            for server_id in object_map.server_ids
        }
        self._links = {
            object_id.index: per_server[object_map.server_of(object_id)]
            for object_id in object_map.object_ids
        }

    # -- send side ---------------------------------------------------------

    def _send(self, op, leg: int, queue) -> None:
        counters = self.counters
        counters[_SENT[leg]] += 1
        now, seq = self._kernel.time, self._send_seq
        faults = self._links[op.object_id.index]
        if faults is None:  # untouched: due at the next pump
            heappush(queue, (now, seq, op))
            self._send_seq = seq + 1
            return
        (
            dropped,
            delay,
            duplicated,
            duplicate_delay,
            reordered,
            partitioned,
            heal_time,
        ) = draw_fate(faults, op.op_id, leg, now)
        if dropped:
            counters[_DROPPED[leg]] += 1
            return
        if partitioned:
            # held until the partition heals (the window covers now, so
            # heal_time > now here; heal=None was already a drop).
            counters["held_by_partition"] += 1
            heappush(queue, (heal_time, seq, op))
        else:
            if reordered:
                counters["reordered"] += 1
            heappush(queue, (now + delay, seq, op))
            if duplicated:
                counters[_DUPLICATED[leg]] += 1
                seq += 1
                heappush(queue, (now + duplicate_delay, seq, op))
        self._send_seq = seq + 1

    def send_request(self, op) -> None:
        self._send(op, REQUEST, self._requests)

    def send_response(self, op) -> None:
        # the op has responded: the oracle never asks about it again.
        self._arrived.discard(op.op_id)
        self._send(op, RESPONSE, self._responses)

    # -- oracle ------------------------------------------------------------

    def request_arrived(self, op) -> bool:
        return op.op_id in self._arrived

    # -- delivery ----------------------------------------------------------

    def _deliver_request(self, op) -> None:
        # A copy that lands after the op responded is stale: recording
        # it would keep the op in _arrived forever.  arrive() itself
        # tolerates duplicates and crashed objects.
        op_id, kernel = op.op_id, self._kernel
        if op_id in kernel.pending:
            self._arrived.add(op_id)
            kernel.arrive(op_id)

    def pump(self) -> None:
        now = self._kernel.time
        requests, responses = self._requests, self._responses
        while requests and requests[0][0] <= now:
            self._deliver_request(heappop(requests)[2])
        while responses and responses[0][0] <= now:
            self._kernel.deliver(heappop(responses)[2])

    def flush_idle(self) -> bool:
        """Force the earliest in-flight message through.

        The kernel clock only advances on steps, so if every client is
        blocked on a delayed (or partition-held) message the clock would
        never reach its due tick.  Flushing delivers the earliest-due
        message anyway — this is exactly the eventual-delivery fairness
        assumption: the schedule may stall a message arbitrarily, but
        not forever.  For a partition-held message, flushing models the
        partition healing once the system has otherwise fully drained.
        """
        request_head = self._requests[0] if self._requests else None
        response_head = self._responses[0] if self._responses else None
        if request_head is None and response_head is None:
            return False
        self.counters["flushes"] += 1
        if response_head is None or (
            request_head is not None and request_head[:2] <= response_head[:2]
        ):
            self._deliver_request(heappop(self._requests)[2])
        else:
            self._kernel.deliver(heappop(self._responses)[2])
        return True

    # -- introspection -----------------------------------------------------

    def in_flight(self) -> int:
        return len(self._requests) + len(self._responses)

    def stats(self) -> "Dict[str, int]":
        snapshot = dict(self.counters)
        snapshot["in_flight"] = self.in_flight()
        return snapshot

    def describe(self) -> "Dict[str, Any]":
        return {
            "transport": "lossy",
            "seed": self.seed,
            "counters": dict(self.counters),
        }
