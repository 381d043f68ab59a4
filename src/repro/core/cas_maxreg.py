"""Algorithm 1: a wait-free atomic max-register from a single CAS.

Appendix B of the paper.  The CAS object supports ``cas(exp, new)``
returning the old value; ``cas(v0, v0)`` doubles as a read.

* ``write-max(v)``: loop — read the current value; if it already dominates
  ``v`` return, else ``cas(current, v)`` and retry.
* ``read-max()``: one ``cas(v0, v0)``.

Because the stored value only grows (``cas(tmp, v)`` is attempted only
with ``v > tmp``), the loop terminates after at most one iteration per
distinct intervening larger value — the *time* complexity grows with
contention/domain, the tradeoff Section 5 highlights: the emulation is
space-optimal (one object) but not time-optimal.  Iteration counts are
recorded in :attr:`CASMaxRegisterClient.iterations` for the time bench.

The module also provides :class:`CASABDEmulation`: ABD where each server's
max-register is *emulated* from the server's single CAS via Algorithm 1 —
the composition giving the CAS row of Table 1 (2f+1 CAS objects).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.abd import ABDEmulation, server_objects
from repro.core.emulation import Deployment, register_algorithm
from repro.sim.client import ClientProtocol, Context, TaskHandle
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.kernel import Environment
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.scheduling import Scheduler
from repro.sim.values import TSVal, bottom_tsval, max_tsval


class _CASOps:
    """Shared plumbing: triggering CAS ops and awaiting their results."""

    def __init__(self) -> None:
        self._results: "Dict[OpId, Any]" = {}
        #: total Algorithm 1 loop iterations (time-complexity metric)
        self.iterations = 0

    def record(self, op: LowLevelOp) -> None:
        if op.kind is OpKind.CAS:
            self._results[op.op_id] = op.result

    def _cas(self, ctx: Context, obj: ObjectId, exp: Any, new: Any):
        """Trigger one CAS and wait for its response (generator)."""
        op = ctx.trigger(obj, OpKind.CAS, exp, new)
        yield lambda: op in self._results
        return self._results.pop(op)

    def write_max(self, ctx: Context, obj: ObjectId, value: Any, v0: Any):
        """Algorithm 1, lines 1-6 (generator returning ``"ok"``)."""
        while True:
            self.iterations += 1
            tmp = yield from self._cas(ctx, obj, v0, v0)  # line 3
            if tmp >= value:  # lines 4-5
                return "ok"
            yield from self._cas(ctx, obj, tmp, value)  # line 6

    def read_max(self, ctx: Context, obj: ObjectId, v0: Any):
        """Algorithm 1, lines 7-9 (generator returning the value)."""
        tmp = yield from self._cas(ctx, obj, v0, v0)  # line 8
        return tmp


class CASMaxRegisterClient(ClientProtocol):
    """A standalone max-register client over one CAS object.

    High-level operations ``write_max(v)`` and ``read_max()``; used to
    validate Theorem 4 (the emulation is atomic and wait-free) and to
    measure Algorithm 1's time complexity.
    """

    def __init__(self, object_id: ObjectId, initial_value: Any):
        self.object_id = object_id
        self.v0 = initial_value
        self.ops = _CASOps()

    @property
    def iterations(self) -> int:
        return self.ops.iterations

    def op_write_max(self, ctx: Context, value: Any):
        result = yield from self.ops.write_max(
            ctx, self.object_id, value, self.v0
        )
        return result

    def op_read_max(self, ctx: Context):
        result = yield from self.ops.read_max(ctx, self.object_id, self.v0)
        return result

    def on_response(self, ctx: Context, op: LowLevelOp) -> None:
        self.ops.record(op)


def _total_iterations(deployment) -> int:
    """Algorithm 1 loop iterations, summed over the deployment's clients."""
    return sum(client.iterations for client in deployment.clients)


@register_algorithm("single-cas")
class SingleCASMaxRegister(Deployment):
    """A deployed single-CAS max-register (one server, one CAS object).

    Writers are unbounded; the writer/reader split only serves the
    uniform Emulation surface (ops are write_max / read_max).
    """

    WRITE, READ = "write_max", "read_max"
    CONDITION = "max-register-atomic"

    def __init__(
        self,
        initial_value: Any = 0,
        scheduler: "Optional[Scheduler]" = None,
        environment: "Optional[Environment]" = None,
    ):
        super().__init__(
            1, [(0, "cas", initial_value)], initial_value, scheduler, environment
        )

    def make_client(self, writer_index, client_id: ClientId):
        return CASMaxRegisterClient(ObjectId(0), self.initial_value)

    total_iterations = property(_total_iterations)


class CASABDClient(ClientProtocol):
    """ABD client whose per-server primitive is Algorithm 1 over a CAS.

    Each quorum round spawns one sub-coroutine per server running
    ``write_max``/``read_max`` against that server's CAS object; the round
    completes when ``n - f`` sub-coroutines finish.  A crashed server's
    coroutine simply never completes — exactly the failure mode ABD
    tolerates.
    """

    def __init__(
        self,
        n: int,
        f: int,
        writer_id: int,
        initial_value: Any = None,
        write_back: bool = True,
        object_ids: "Optional[Sequence[ObjectId]]" = None,
    ):
        self.n = n
        self.f = f
        self.writer_id = writer_id
        self.v0 = bottom_tsval(initial_value)
        self.write_back = write_back
        self.object_ids = server_objects(n, object_ids)
        self.ops = _CASOps()

    @property
    def iterations(self) -> int:
        return self.ops.iterations

    # -- per-server emulated max-register rounds ---------------------------

    def _round(self, ctx: Context, write_value: "Optional[TSVal]"):
        """One quorum round: read-max (write_value None) or write-max."""
        handles: "List[TaskHandle]" = []
        results: "List[TSVal]" = []

        def server_task(server_index: int):
            obj = self.object_ids[server_index]
            if write_value is None:
                value = yield from self.ops.read_max(ctx, obj, self.v0)
                results.append(value)
            else:
                yield from self.ops.write_max(
                    ctx, obj, write_value, self.v0
                )

        for server_index in range(self.n):
            handles.append(
                ctx.spawn(server_task(server_index), name=f"srv-{server_index}")
            )
        yield ctx.count_done(handles, self.n - self.f)
        return results

    # -- high-level operations ------------------------------------------------

    def op_write(self, ctx: Context, value: Any):
        responses = yield from self._round(ctx, None)
        ts = max_tsval(responses).ts + 1
        tagged = TSVal(ts=ts, wid=self.writer_id, val=value)
        yield from self._round(ctx, tagged)
        return "ack"

    def op_read(self, ctx: Context):
        responses = yield from self._round(ctx, None)
        best = max_tsval(responses)
        if self.write_back:
            yield from self._round(ctx, best)
        return best.val

    def on_response(self, ctx: Context, op: LowLevelOp) -> None:
        self.ops.record(op)


@register_algorithm("cas-abd")
class CASABDEmulation(ABDEmulation):
    """ABD over n servers each storing a single CAS object.

    Resource complexity: ``n`` CAS objects (2f+1 at the minimum), the CAS
    row of Table 1.
    """

    CLIENT = CASABDClient
    BASE_TYPE = "cas"
    AUTO_IDS = "clients"

    total_iterations = property(_total_iterations)
