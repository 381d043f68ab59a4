"""The quorum system of Section 3.3, as a first-class object.

Algorithm 2's correctness rests on two combinatorial properties of its
layout (stated just below Figure 1):

1. each set ``R_i`` supports ``floor((|R_i|-(f+1))/f)`` writers — at
   least as many as are assigned to it;
2. every read quorum (all registers on some ``n-f`` servers) covers at
   least ``|R_i| - f`` registers of each ``R_i`` (it can miss at most the
   f unscanned servers' one-register-each share), hence intersects every
   write quorum (any ``|R_i| - f``-subset of ``R_i``) in at least
   ``|R_i| - 2f >= 1`` registers.

:class:`QuorumSystem` enumerates the quorum families for a layout (with
explicit combinatorial guards) and :func:`verify_quorum_properties`
checks both properties exhaustively — executable versions of the
paragraph the paper proves Lemma 7 from.

The quorum substrates (ABD over max-registers or CAS objects, the
f-tolerant max-register, Theorem 5's 2f-server control) all await
``n - f`` of ``n`` per-server responses; :class:`QuorumClient` is that
round, written once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence

from repro.core import bounds
from repro.errors import InvalidConfig
from repro.sim.client import ClientProtocol, Context
from repro.sim.ids import ObjectId, OpId, ServerId
from repro.sim.objects import LowLevelOp, OpKind


def server_objects(
    n: int, object_ids: "Optional[Sequence[ObjectId]]"
) -> "List[ObjectId]":
    """Which object lives on server ``i``, for the one-object-per-server
    clients.  The default identity placement serves single-register
    deployments; multi-register fleets (one kernel hosting many ABD
    instances) pass each instance its own slice of the shared
    object-id space.
    """
    if object_ids is None:
        return [ObjectId(i) for i in range(n)]
    if len(object_ids) != n:
        raise InvalidConfig(
            f"need one object per server: got {len(object_ids)}"
            f" ids for n={n}"
        )
    return list(object_ids)


class QuorumClient(ClientProtocol):
    """A client over one object per server that awaits ``n - f`` of them.

    Subclasses build their operations from :meth:`_quorum`; one that
    swaps the per-server primitive overrides :meth:`_quorum` (and
    :meth:`on_response`) with the same signature.
    """

    def __init__(
        self,
        n: int,
        f: int,
        object_ids: "Optional[Sequence[ObjectId]]" = None,
    ):
        self.n = n
        self.f = f
        self.object_ids = server_objects(n, object_ids)
        #: responses of the quorum round in flight (at most ``n``)
        self._results: "Dict[OpId, Any]" = {}
        self._round: "FrozenSet[OpId]" = frozenset()

    def _quorum(self, ctx: Context, kind: OpKind, args: tuple):
        """Trigger ``kind(args)`` on every server's object, await n-f."""
        ops = ctx.trigger_each(self.object_ids, kind, *args)
        self._round = frozenset(ops)
        needed = self.n - self.f
        results = self._results
        yield lambda: len(results) >= needed
        responses = [results[op] for op in ops if op in results]
        # The round is over: up to f responses are still in flight and
        # on_response drops them, so nothing outlives the round.
        self._round = frozenset()
        results.clear()
        return responses

    def on_response(self, ctx: Context, op: LowLevelOp) -> None:
        if op.op_id in self._round:
            self._results[op.op_id] = op.result


@dataclass(frozen=True)
class QuorumStats:
    """Measured intersection structure of one register set."""

    set_index: int
    set_size: int
    writers_assigned: int
    writers_supported: int
    min_read_cover: int
    min_write_read_intersection: int


class QuorumSystem:
    """Read/write quorum families of an Algorithm 2 layout."""

    #: refuse enumerations beyond this many quorums (guard, not a limit
    #: of the math)
    MAX_ENUMERATION = 200_000

    def __init__(self, layout):
        self.layout = layout
        self.f = layout.f
        self.n = layout.n

    # -- families ------------------------------------------------------------

    def write_quorums(self, set_index: int) -> "Iterator[FrozenSet[ObjectId]]":
        """All ``|R_i| - f``-subsets of ``R_i``."""
        register_set = self.layout.sets[set_index]
        size = len(register_set) - self.f
        self._guard(_n_choose_k(len(register_set), size))
        for subset in itertools.combinations(register_set, size):
            yield frozenset(subset)

    def read_quorum_server_sets(self) -> "Iterator[FrozenSet[ServerId]]":
        """All ``n - f``-subsets of the servers."""
        servers = [ServerId(i) for i in range(self.n)]
        size = self.n - self.f
        self._guard(_n_choose_k(self.n, size))
        for subset in itertools.combinations(servers, size):
            yield frozenset(subset)

    def read_quorum(self, servers: "FrozenSet[ServerId]") -> "FrozenSet[ObjectId]":
        """The registers of the layout hosted on the given servers."""
        registers: "List[ObjectId]" = []
        for server in servers:
            registers.extend(self.layout.registers_on_server(server))
        return frozenset(registers)

    def _guard(self, count: int) -> None:
        if count > self.MAX_ENUMERATION:
            raise InvalidConfig(
                f"quorum family too large to enumerate ({count});"
                " use smaller parameters"
            )

    # -- measured structure -------------------------------------------------------

    def stats(self, set_index: int) -> QuorumStats:
        register_set = frozenset(self.layout.sets[set_index])
        writers = getattr(
            self.layout, "writers_of_set", lambda i: [None]
        )(set_index)
        min_cover = len(register_set)
        min_intersection = len(register_set)
        for server_subset in self.read_quorum_server_sets():
            read_quorum = self.read_quorum(server_subset)
            cover = len(read_quorum & register_set)
            min_cover = min(min_cover, cover)
            for write_quorum in self.write_quorums(set_index):
                min_intersection = min(
                    min_intersection, len(write_quorum & read_quorum)
                )
        return QuorumStats(
            set_index=set_index,
            set_size=len(register_set),
            writers_assigned=len(writers),
            writers_supported=bounds.writers_supported_by_set(
                len(register_set), self.f
            ),
            min_read_cover=min_cover,
            min_write_read_intersection=min_intersection,
        )


def verify_quorum_properties(layout) -> "List[QuorumStats]":
    """Exhaustively verify Section 3.3's quorum claims for a layout.

    Returns the per-set stats; raises ``AssertionError`` on any violated
    property.  Exponential in the set sizes — intended for the small
    instances the tests and benches use.
    """
    system = QuorumSystem(layout)
    all_stats = []
    for set_index in range(len(layout.sets)):
        stats = system.stats(set_index)
        size = stats.set_size
        f = layout.f
        assert stats.writers_supported >= stats.writers_assigned, (
            f"set {set_index} overloaded:"
            f" {stats.writers_assigned} > {stats.writers_supported}"
        )
        # Claim: every read quorum covers >= |R_i| - f of the set.
        assert stats.min_read_cover >= size - f, (
            f"set {set_index}: read cover {stats.min_read_cover}"
            f" < {size - f}"
        )
        # Hence write/read quorums always intersect (>= |R_i| - 2f >= 1).
        assert stats.min_write_read_intersection >= max(size - 2 * f, 1), (
            f"set {set_index}: intersection"
            f" {stats.min_write_read_intersection} too small"
        )
        all_stats.append(stats)
    return all_stats


def _n_choose_k(n: int, k: int) -> int:
    import math

    if k < 0 or k > n:
        return 0
    return math.comb(n, k)
