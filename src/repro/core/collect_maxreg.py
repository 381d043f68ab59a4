"""Max-registers from plain read/write registers.

Two constructions from the paper's narrative:

* :class:`CollectMaxRegister` — a wait-free atomic **k-writer max-register
  from exactly k registers** in the standard (failure-free) shared memory
  model: writer ``w`` keeps the maximum of its own writes in register
  ``w``; a reader collects all ``k`` registers and returns the largest
  value.  Theorem 2 proves ``k`` registers are *necessary*, so this
  construction is space-optimal.

* :class:`ReplicatedMaxRegisterEmulation` — the matching upper bound for
  ``n = 2f+1`` mentioned in Sections 1 and 3.2: each server implements a
  k-writer max-register from ``k`` base registers, and an ABD-style quorum
  protocol runs on top, for ``(2f+1)k`` registers total — tight against
  Theorem 1's ``kf + k(f+1) = k(2f+1)`` at ``n = 2f+1``.  Structurally
  this is Algorithm 2 with the *per-writer column* layout (writer ``w``
  owns register ``w`` of every server), so we instantiate the
  Algorithm 2 client over a :class:`PerWriterLayout`, inheriting the
  covered-register avoidance that fault-prone registers force.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.emulation import (
    Deployment,
    register_algorithm,
    require_majority,
)
from repro.core.ws_register import WSRegisterEmulation
from repro.errors import BoundViolation, WriterBoundExceeded
from repro.sim.client import ClientProtocol, Context
from repro.sim.ids import ClientId, ObjectId, OpId, ServerId
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.scheduling import Scheduler
from repro.sim.system import Placement
from repro.sim.values import bottom_tsval


class CollectMaxRegisterClient(ClientProtocol):
    """Client of the k-register max-register (standard shared memory).

    Writer ``w`` caches the largest value it has written; ``write_max(v)``
    writes register ``w`` only when ``v`` exceeds the cache (a smaller
    ``write_max`` is a no-op that linearizes immediately).  ``read_max()``
    reads all ``k`` registers and returns the maximum.
    """

    def __init__(
        self, k: int, writer_index: "Optional[int]", initial_value: Any
    ):
        self.k = k
        self.writer_index = writer_index
        self.initial_value = initial_value
        self._local_max = initial_value
        self._results: "Dict[OpId, Any]" = {}
        self._registers = [ObjectId(i) for i in range(k)]

    def op_write_max(self, ctx: Context, value: Any):
        if self.writer_index is None:
            raise WriterBoundExceeded("read-only client invoked write_max")
        if value <= self._local_max:
            return "ok"
        self._local_max = value
        op = ctx.trigger(ObjectId(self.writer_index), OpKind.WRITE, value)
        yield lambda: op in self._results
        self._results.pop(op)
        return "ok"

    def op_read_max(self, ctx: Context):
        ops = ctx.trigger_each(self._registers, OpKind.READ)
        yield lambda: all(op in self._results for op in ops)
        values = [self._results.pop(op) for op in ops]
        best = self.initial_value
        for value in values:
            if value > best:
                best = value
        return best

    def on_response(self, ctx: Context, op: LowLevelOp) -> None:
        self._results[op.op_id] = op.result


@register_algorithm("collect-maxreg")
class CollectMaxRegister(Deployment):
    """Deployment of the k-register max-register on one reliable server."""

    WRITE, READ = "write_max", "read_max"
    CONDITION = "max-register-atomic"
    BOUNDED_WRITERS = True
    AUTO_IDS = "readers"

    def __init__(
        self,
        k: int,
        initial_value: Any = 0,
        scheduler: "Optional[Scheduler]" = None,
    ):
        if k <= 0:
            raise BoundViolation(f"k must be positive, got {k}")
        self.k = k
        super().__init__(
            1, [(0, "register", initial_value)] * k, initial_value, scheduler
        )

    @property
    def total_registers(self) -> int:
        """Exactly k — matching Theorem 2's lower bound."""
        return self.k

    def make_client(self, writer_index, client_id: ClientId):
        return CollectMaxRegisterClient(
            self.k, writer_index, self.initial_value
        )


class PerWriterLayout:
    """The per-writer column layout: writer ``w`` owns one register per
    server (register ids ``w, k + w, 2k + w, ...``).

    Provides the interface :class:`~repro.core.ws_register.WSRegisterClient`
    expects (``f``, ``registers_for_writer``, ``read_quorum_servers``,
    ``placements``), so the Algorithm 2 client runs unchanged over it.
    Total registers: ``n * k`` (``(2f+1)k`` at the minimum server count).
    """

    def __init__(self, k: int, n: int, f: int, initial_value: Any = None):
        require_majority(n, f)
        if k <= 0 or f <= 0:
            raise BoundViolation("k and f must be positive")
        self.k = k
        self.n = n
        self.f = f
        self.z = 1  # one writer per register set
        self.initial_value = initial_value
        # Register w + s*k is writer w's register on server s.
        self.sets = [
            [ObjectId(w + s * k) for s in range(n)] for w in range(k)
        ]
        self._delta = {
            ObjectId(w + s * k): ServerId(s)
            for s in range(n)
            for w in range(k)
        }

    @property
    def total_registers(self) -> int:
        return self.n * self.k

    def server_of(self, object_id: ObjectId) -> ServerId:
        return self._delta[object_id]

    def set_index_for_writer(self, writer_index: int) -> int:
        if not 0 <= writer_index < self.k:
            raise WriterBoundExceeded(
                f"writer index {writer_index} out of range [0, {self.k})"
            )
        return writer_index

    def registers_for_writer(self, writer_index: int) -> "List[ObjectId]":
        return list(self.sets[self.set_index_for_writer(writer_index)])

    def read_quorum_servers(self) -> int:
        return self.n - self.f

    def registers_on_server(self, server_id: ServerId) -> "List[ObjectId]":
        return [
            oid for oid, sid in self._delta.items() if sid == server_id
        ]

    def storage_profile(self) -> "Dict[ServerId, int]":
        profile: "Dict[ServerId, int]" = {
            ServerId(i): 0 for i in range(self.n)
        }
        for server_id in self._delta.values():
            profile[server_id] += 1
        return profile

    def placements(self) -> "List[Placement]":
        initial = bottom_tsval(self.initial_value)
        total = self.n * self.k
        return [
            (self._delta[ObjectId(i)].index, "register", initial)
            for i in range(total)
        ]

    def validate(self) -> None:
        for register_set in self.sets:
            servers = {self._delta[oid] for oid in register_set}
            assert len(servers) == len(register_set)
        assert self.total_registers == self.n * self.k


@register_algorithm("replicated-maxreg")
class ReplicatedMaxRegisterEmulation(WSRegisterEmulation):
    """The ``(2f+1)k``-register emulation for ``n = 2f+1`` (Section 3.2).

    Algorithm 2's client over the per-writer column layout: each server
    effectively implements a k-writer max-register from k registers, and
    quorum accesses provide f-tolerance.  WS-Regular and wait-free.
    """

    LAYOUT = PerWriterLayout

    @property
    def total_registers(self) -> int:
        return self.layout.total_registers
