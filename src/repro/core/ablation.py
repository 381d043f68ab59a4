"""Ablations: break Algorithm 2's mechanisms and watch safety fail.

DESIGN.md calls out two load-bearing design choices in Algorithm 2:

1. **Covered-register avoidance** (lines 6-10): a writer never triggers a
   new low-level write on a register that still has one of its own writes
   pending.  :class:`NoCoverAvoidanceClient` removes this: it always
   triggers on every register of its set.  An old pending write can then
   *revert* a register after newer values landed, and an adversary can
   stack reverts until the latest value is invisible to a legal read
   quorum — a WS-Safety violation (scripted in
   :func:`cover_avoidance_violation`).

2. **The |R_j| - f write quorum** (line 11): waiting for fewer responses
   leaves the value on too few servers.  :class:`SmallQuorumClient` waits
   for |R_j| - (f+1); with one crash and the remaining pending writes
   delayed, a subsequent isolated read misses the value entirely
   (scripted in :func:`small_quorum_violation`).

Both scripts return the recorded history; the WS-Safety checker flags the
stale read, demonstrating that the space the paper charges for these
mechanisms is not an artifact of the algorithm but of the problem.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.consistency.ws import WSViolation, check_ws_safe
from repro.core.ws_register import WSRegisterClient, WSRegisterEmulation
from repro.errors import WriterBoundExceeded
from repro.sim.client import Context
from repro.sim.ids import ObjectId
from repro.sim.kernel import Environment, Kernel
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.scheduling import RoundRobinScheduler
from repro.sim.values import TSVal


class NoCoverAvoidanceClient(WSRegisterClient):
    """Algorithm 2 minus lines 6-10's cover check: writes everywhere.

    The writer triggers a write on *every* register of its set each
    operation and counts any |R_j| - f responses of the current
    operation, leaving old covering writes free to revert registers
    later.
    """

    def op_write(self, ctx: Context, value: Any):
        if self.writer_index is None:
            raise WriterBoundExceeded("read-only client invoked write")
        collected = yield from self._collect(ctx)
        self.ts_val = TSVal(
            ts=collected.ts + 1, wid=self.writer_index, val=value
        )
        registers = self.layout.registers_for_writer(self.writer_index)
        self.cover_set = set()  # ablated: no avoidance, no retrigger
        self.wr_set = set()
        self._current_write_ops = set(
            ctx.trigger_each(registers, OpKind.WRITE, self.ts_val)
        )
        quorum = self._write_quorum(registers)
        yield lambda: len(self.wr_set) >= quorum
        return "ack"

    def on_response(self, ctx: Context, op: LowLevelOp) -> None:
        if op.kind is OpKind.WRITE:
            if op.op_id in getattr(self, "_current_write_ops", set()):
                self.wr_set.add(op.object_id)
            return
        super().on_response(ctx, op)


class SmallQuorumClient(WSRegisterClient):
    """Algorithm 2 with an insufficient write quorum: |R_j| - (f+1)."""

    def _write_quorum(self, registers: "Sequence[ObjectId]") -> int:
        return len(registers) - (self.layout.f + 1)  # ablated: one short


class ScriptedWriteBlocker(Environment):
    """Blocks write responds on selected objects, optionally only for
    writes triggered before a time threshold (so later phases can write
    the same object)."""

    def __init__(self) -> None:
        #: object -> block writes triggered strictly before this time
        #: (None = block all writes on the object)
        self.rules: "dict[ObjectId, Optional[int]]" = {}

    def block(self, object_id: ObjectId, triggered_before: "Optional[int]" = None):
        self.rules[object_id] = triggered_before
        return self

    def unblock(self, object_id: ObjectId):
        self.rules.pop(object_id, None)
        return self

    def allows(self, op: LowLevelOp, kernel: Kernel) -> bool:
        if not op.is_mutator:
            return True
        threshold = self.rules.get(op.object_id, "absent")
        if threshold == "absent":
            return True
        if threshold is None:
            return False
        return op.trigger_time >= threshold


class NoCoverAvoidanceEmulation(WSRegisterEmulation):
    CLIENT = NoCoverAvoidanceClient


class SmallQuorumEmulation(WSRegisterEmulation):
    CLIENT = SmallQuorumClient


def _run_until_idle(emulation, runtime, max_steps=100_000) -> None:
    result = emulation.kernel.run(
        max_steps=max_steps,
        until=lambda k: runtime.idle and not runtime.program,
    )
    if not result.satisfied:
        raise AssertionError(f"operation did not finish: {result}")


def _release_stale_writes(emulation, register) -> None:
    """Respond the writes pending on ``register``, newest first, so the
    oldest value lands last (Assumption 1: effect at respond)."""
    stale = sorted(
        (
            op
            for op in emulation.kernel.pending.values()
            if op.object_id == register and op.is_mutator
        ),
        key=lambda op: op.trigger_time,
        reverse=True,
    )
    for op in stale:
        emulation.kernel.force_respond(op.op_id)


def cover_avoidance_violation() -> "List[WSViolation]":
    """Script the revert attack against :class:`NoCoverAvoidanceClient`.

    k=1, n=3, f=1, set R_0 = {b0, b1, b2} on servers s0, s1, s2.

    * W1(v1): responds on b0, b1; the write on b2 is held (covering).
    * W2(v2): responds on b0, b1; its b2 write held too.
    * W3(v3): b1 now held instead; responds on b0 and b2 (so W3 returns),
      after which the held W2- and W1-writes on b2 respond **in that
      order**, reverting b2 to v1.
    * Crash s0 (one crash: within f).  An isolated read scans s1, s2 and
      sees only v2, v1 — it returns v2 although W3(v3) completed:
      WS-Safety is violated.

    Returns the checker's violations (non-empty = ablation broke safety).
    """
    env = ScriptedWriteBlocker()
    emu = NoCoverAvoidanceEmulation(
        k=1, n=3, f=1, scheduler=RoundRobinScheduler(), environment=env
    )
    writer = emu.add_writer(0)
    reader = emu.add_reader()
    b0, b1, b2 = emu.layout.registers_for_writer(0)

    env.block(b2)  # all writes on b2 held
    writer.enqueue("write", "v1")
    _run_until_idle(emu, writer)
    writer.enqueue("write", "v2")
    _run_until_idle(emu, writer)

    # Phase 3: free *new* writes on b2, hold everything on b1.
    now = emu.kernel.time
    env.block(b2, triggered_before=now)
    env.block(b1)
    writer.enqueue("write", "v3")
    _run_until_idle(emu, writer)

    _release_stale_writes(emu, b2)
    assert emu.object_map.object(b2).value.val == "v1", "revert failed"

    # One crash (within f), then an isolated read.
    emu.kernel.crash_server(emu.layout.server_of(b0))
    reader.enqueue("read")
    _run_until_idle(emu, reader)
    return check_ws_safe(emu.history)


def small_quorum_run() -> SmallQuorumEmulation:
    """Script the lost-write attack against :class:`SmallQuorumClient`.

    k=1, n=3, f=1: the ablated writer awaits only |R_0| - (f+1) = 1
    response.  The adversary lets only the b0 write respond, W1 returns,
    s0 crashes, and the two held writes never land — an isolated read
    finds no trace of v1 and returns the initial value.  Returns the
    finished deployment.
    """
    env = ScriptedWriteBlocker()
    emu = SmallQuorumEmulation(
        k=1,
        n=3,
        f=1,
        initial_value="v0",
        scheduler=RoundRobinScheduler(),
        environment=env,
    )
    writer = emu.add_writer(0)
    reader = emu.add_reader()
    b0, b1, b2 = emu.layout.registers_for_writer(0)

    env.block(b1)
    env.block(b2)
    writer.enqueue("write", "v1")
    _run_until_idle(emu, writer)

    emu.kernel.crash_server(emu.layout.server_of(b0))
    reader.enqueue("read")
    _run_until_idle(emu, reader)
    return emu


def small_quorum_violation() -> "List[WSViolation]":
    """The WS-Safety violations of :func:`small_quorum_run` (one: the
    read returns the initial value after W(v1) completed)."""
    return check_ws_safe(small_quorum_run().history, initial_value="v0")


def baseline_no_violation() -> "List[WSViolation]":
    """The revert script against the *real* Algorithm 2 client.

    Two defenses neutralize the attack.  First, the covered register b2
    is never rewritten, so there is nothing newer on it to revert — its
    old covering write can only deliver the value it always carried.
    Second, while the adversary holds both b1's fresh writes and b2's old
    ones (more than f servers effectively silent), W3 *refuses to return*
    rather than complete a write it cannot make durable; once fairness
    forces b1 to respond, W3 completes with v3 safely on a quorum.
    """
    env = ScriptedWriteBlocker()
    emu = WSRegisterEmulation(
        k=1, n=3, f=1, scheduler=RoundRobinScheduler(), environment=env
    )
    writer = emu.add_writer(0)
    reader = emu.add_reader()
    b0, b1, b2 = emu.layout.registers_for_writer(0)

    env.block(b2)
    writer.enqueue("write", "v1")
    _run_until_idle(emu, writer)
    writer.enqueue("write", "v2")
    _run_until_idle(emu, writer)
    now = emu.kernel.time
    env.block(b2, triggered_before=now)
    env.block(b1)
    writer.enqueue("write", "v3")
    # With b1 and (old) b2 writes held, the honest writer cannot reach its
    # |R_0| - f = 2 quorum: it waits instead of returning unsafely.
    stalled = emu.kernel.run(
        max_steps=10_000,
        until=lambda k: writer.idle and not writer.program,
    )
    assert not stalled.satisfied, "honest writer returned without a quorum"
    # Fairness: the environment cannot hold a correct server forever.
    env.unblock(b1)
    _run_until_idle(emu, writer)

    # Release the stale covering write on b2 (it carries v1; there is no
    # newer value on b2 to revert).  Algorithm 2's respond handler
    # immediately retriggers the current value onto b2 (lines 30-32).
    _release_stale_writes(emu, b2)

    emu.kernel.crash_server(emu.layout.server_of(b0))
    reader.enqueue("read")
    _run_until_idle(emu, reader)
    return check_ws_safe(emu.history)
