"""Theorem 5, executed: 2f servers are not enough.

Theorem 5 says every f-tolerant WS-Safe obstruction-free k-register
emulation needs at least 2f+1 servers.  The classic partitioning argument
behind it: with n = 2f servers, any operation that tolerates f crashes
can wait for at most n - f = f servers, and two f-server quorums need not
intersect — so a write can land entirely on one half while a reader,
seeing only the other half (its half *looks* crashed, the write's half is
merely slow), finds nothing.

We cannot quantify over all algorithms, but we can execute the argument
against the natural candidate: :class:`TwoFQuorumEmulation`, ABD without
write-back (:class:`~repro.core.abd.ABDClient` unchanged) on n = 2f
servers, whose quorums are therefore any f servers (the largest quorum
an f-tolerant algorithm may await).  :func:`partition_violation`
scripts the split-brain run and returns the WS-Safety violation the
checker finds; all correct emulations in this library refuse such
deployments up front (they validate n >= 2f+1).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.consistency.ws import WSViolation, check_ws_safe
from repro.core.abd import ABDClient
from repro.core.emulation import Deployment
from repro.sim.ids import ClientId, ServerId
from repro.sim.kernel import Environment, Kernel
from repro.sim.objects import LowLevelOp
from repro.sim.scheduling import RoundRobinScheduler
from repro.sim.values import bottom_tsval


class TwoFQuorumEmulation(Deployment):
    """Deployment of the unsound 2f-server emulation (negative control)."""

    def __init__(self, f: int, initial_value: Any = None, environment=None):
        self.n = 2 * f
        self.f = f
        v0 = bottom_tsval(initial_value)
        super().__init__(
            self.n,
            [(i, "max-register", v0) for i in range(self.n)],
            initial_value,
            RoundRobinScheduler(),
            environment,
        )

    def make_client(self, writer_index, client_id: ClientId):
        # The best an f-tolerant algorithm could do on 2f servers: it may
        # never wait for more than n - f = f responses, else a legal
        # crash pattern blocks it forever.
        return ABDClient(
            self.n,
            self.f,
            writer_id=client_id.index,
            initial_value=self.initial_value,
            write_back=False,
        )


class _HalfBlocker(Environment):
    """Delays responds on one half of the servers, plus stale mutators.

    The blocked half is indistinguishable (to clients) from f crashed
    servers, so an f-tolerant algorithm must make progress without it.
    When the roles swap, mutators triggered before the swap stay delayed
    (``stale_mutators_before``): asynchrony lets the old write's updates
    hang in flight while the reader races ahead — the same covering power
    the lower bound uses.
    """

    def __init__(self, blocked_servers):
        self.blocked = set(blocked_servers)
        self.stale_mutators_before: "Optional[int]" = None

    def swap(self, new_blocked, now: int) -> None:
        self.blocked = set(new_blocked)
        self.stale_mutators_before = now

    def allows(self, op: LowLevelOp, kernel: Kernel) -> bool:
        if (
            self.stale_mutators_before is not None
            and op.is_mutator
            and op.trigger_time < self.stale_mutators_before
        ):
            return False
        server = kernel.object_map.server_of(op.object_id)
        return server not in self.blocked


def partition_run(f: int = 1) -> TwoFQuorumEmulation:
    """Script the split-brain run on n = 2f servers.

    Phase 1: servers {f..2f-1} are slow; the writer completes W(v1) using
    only the first half.  Phase 2: the halves swap roles; an isolated
    reader completes using only the second half — which never saw v1 —
    and returns the initial value.  Returns the finished deployment.
    """
    first_half = {ServerId(i) for i in range(f)}
    second_half = {ServerId(i) for i in range(f, 2 * f)}

    blocker = _HalfBlocker(second_half)
    emu = TwoFQuorumEmulation(f=f, initial_value="v0", environment=blocker)
    writer = emu.add_client()
    reader = emu.add_client()

    writer.enqueue("write", "v1")
    result = emu.kernel.run(
        max_steps=100_000, until=lambda k: writer.idle and not writer.program
    )
    assert result.satisfied, "write should finish on its half"

    # Swap the slow half; the write's updates remain in flight (delayed).
    blocker.swap(first_half, emu.kernel.time)
    reader.enqueue("read")
    result = emu.kernel.run(
        max_steps=100_000, until=lambda k: reader.idle and not reader.program
    )
    assert result.satisfied, "read should finish on the other half"
    return emu


def partition_violation(f: int = 1) -> "List[WSViolation]":
    """The WS-Safety violations of :func:`partition_run` (one: the
    reader returns the initial value after W(v1) completed)."""
    return check_ws_safe(partition_run(f).history, initial_value="v0")
