"""Algorithm 2: the f-tolerant wait-free WS-Regular k-register.

The upper-bound construction of Section 3.3 / Appendix D, implemented line
by line against the paper's pseudo-code:

* Registers store timestamped values (:class:`~repro.sim.values.TSVal`).
* ``write(v)`` (lines 1-12): collect from a read quorum, pick a higher
  timestamp, trigger low-level writes on every register of the writer's
  set ``R_j`` that is **not covered** by one of the writer's own pending
  writes (lines 6-10), wait for ``|R_j| - f`` responses (line 11).
* ``read()`` (lines 17-19): collect and return the value with the highest
  timestamp.
* ``collect()`` (lines 20-26): scan all registers of every server, wait
  for ``n - f`` complete per-server scans.
* Respond handlers (lines 27-34): read responds accumulate into
  ``rdSet``; a write respond on a register the writer still covers
  immediately retriggers a write of the *current* timestamped value
  (lines 30-32), otherwise it counts toward the write quorum (line 34).

The covered-register avoidance (lines 6-10) is exactly what bounds each
writer's footprint to ``f`` covered registers after each complete write —
the property the lower bound shows is unavoidable.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.core.emulation import Deployment, register_algorithm
from repro.core.layout import RegisterLayout
from repro.errors import WriterBoundExceeded
from repro.sim.client import ClientProtocol, Context
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.kernel import Environment
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.scheduling import Scheduler
from repro.sim.values import TSVal, bottom_tsval


class WSRegisterClient(ClientProtocol):
    """Client-side state machine of Algorithm 2.

    ``writer_index`` selects the register set ``R_{floor(w/z)}``; readers
    pass ``writer_index=None`` and may only invoke ``read``.
    """

    def __init__(
        self,
        layout: RegisterLayout,
        object_map,
        writer_index: "Optional[int]" = None,
        initial_value: Any = None,
    ):
        self.layout = layout
        self.object_map = object_map
        self.writer_index = writer_index
        # State_i of the paper: tsVal, rdSet, wrSet, coverSet.
        self.ts_val: TSVal = bottom_tsval(initial_value)
        self.rd_set: "List[TSVal]" = []
        self.wr_set: "Set[ObjectId]" = (
            set(layout.registers_for_writer(writer_index))
            if writer_index is not None
            else set()
        )
        self.cover_set: "Set[ObjectId]" = set()
        # Kernel-facing bookkeeping (not part of the paper's state): which
        # of our read ops responded, to advance the per-server scans, and
        # the scan plan: per server of the fleet (fixed once the system
        # is built), in server order, the tuple of registers its scan
        # reads, built at the first collect.
        self._read_done: "Set[OpId]" = set()
        self._scan_plan: "Optional[Tuple[Tuple[ObjectId, ...], ...]]" = None

    # -- high-level operations -------------------------------------------------

    def op_write(self, ctx: Context, value: Any):
        """Lines 1-12."""
        if self.writer_index is None:
            raise WriterBoundExceeded("read-only client invoked write")
        collected = yield from self._collect(ctx)  # line 2
        self.ts_val = TSVal(  # lines 3-4
            ts=collected.ts + 1, wid=self.writer_index, val=value
        )
        registers = self.layout.registers_for_writer(self.writer_index)
        # Lines 6-10 execute atomically (single coroutine segment), which
        # realizes the "do not handle responds between lines 6 to 10" note.
        self.cover_set = set(registers) - self.wr_set  # line 6
        self.wr_set = set()  # line 7
        uncovered = []
        for register in registers:  # lines 8-10
            if register not in self.cover_set:
                uncovered.append(register)
        ctx.trigger_each(uncovered, OpKind.WRITE, self.ts_val)
        quorum = self._write_quorum(registers)
        yield lambda: len(self.wr_set) >= quorum  # line 11
        return "ack"  # line 12

    def _write_quorum(self, registers: "Sequence[ObjectId]") -> int:
        """Line 11's quorum: ``|R_j| - f`` write responses."""
        return len(registers) - self.layout.f

    def op_read(self, ctx: Context):
        """Lines 17-19."""
        collected = yield from self._collect(ctx)
        return collected.val

    # -- collect / scan (lines 13-16, 20-26) ---------------------------------------

    def _collect(self, ctx: Context):
        self.rd_set = []  # line 21
        # Every earlier scan is dead by now (the n - f needed ones ended,
        # the rest were abandoned): the ids of their reads are never
        # waited on again.
        self._read_done.clear()
        plan = self._scan_plan
        if plan is None:
            plan = self._scan_plan = tuple(
                tuple(self.layout.registers_on_server(server_id))
                for server_id in self.object_map.server_ids
            )
        handles = [
            ctx.spawn(self._scan(ctx, registers)) for registers in plan  # line 22
        ]
        needed = self.layout.read_quorum_servers()
        yield ctx.count_done(handles, needed)  # line 24
        best = self.rd_set[0]
        for candidate in self.rd_set[1:]:  # lines 25-26
            if candidate > best:
                best = candidate
        return best

    def _scan(self, ctx: Context, registers: "Tuple[ObjectId, ...]"):
        """Lines 13-16: read every register of one server, sequentially.

        ``registers`` is the server's entry of the scan plan.  "Every
        register" means every register *of this emulation* — when
        several emulations share a server fleet, delta^-1(s) is taken
        within the emulation's own base-object set.
        """
        for register in registers:
            op_id = ctx.trigger(register, OpKind.READ)  # line 15
            yield lambda op_id=op_id: op_id in self._read_done  # line 16
            self._read_done.discard(op_id)

    # -- respond handlers (lines 27-34) -----------------------------------------------

    def on_response(self, ctx: Context, op: LowLevelOp) -> None:
        if op.kind is OpKind.READ:
            self.rd_set.append(op.result)  # line 28
            self._read_done.add(op.op_id)
            return
        if op.kind is OpKind.WRITE:
            register = op.object_id
            if register in self.cover_set:  # lines 30-32
                self.cover_set.discard(register)
                ctx.trigger(register, OpKind.WRITE, self.ts_val)
            else:  # line 34
                self.wr_set.add(register)


@register_algorithm("ws-register")
class WSRegisterEmulation(Deployment):
    """A deployed Algorithm 2 instance: layout, servers, kernel, clients.

    Resource complexity is ``kf + ceil(k/z)(f+1)`` base registers
    (Theorem 3); ``emulation.layout.total_registers`` exposes the count.
    Subclasses swap :attr:`LAYOUT` (another register-to-server map with
    the same interface) or :attr:`CLIENT` (the protocol writers run;
    readers always run the intact :class:`WSRegisterClient`).
    """

    LAYOUT = RegisterLayout
    CLIENT = WSRegisterClient
    BOUNDED_WRITERS = True
    AUTO_IDS = "readers"

    def __init__(
        self,
        k: int,
        n: int,
        f: int,
        initial_value: Any = None,
        scheduler: "Optional[Scheduler]" = None,
        environment: "Optional[Environment]" = None,
    ):
        self.k = k
        self.layout = self.LAYOUT(k, n, f, initial_value)
        self.layout.validate()
        super().__init__(
            n, self.layout.placements(), initial_value, scheduler, environment
        )

    def make_client(self, writer_index, client_id: ClientId):
        client = WSRegisterClient if writer_index is None else self.CLIENT
        return client(
            self.layout,
            self.object_map,
            writer_index=writer_index,
            initial_value=self.initial_value,
        )
