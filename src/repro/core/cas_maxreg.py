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

from typing import Any, Dict, List, Optional, Set

from repro.core.abd import ABDClient, ABDEmulation
from repro.core.emulation import Deployment, register_algorithm
from repro.sim.client import ClientProtocol, Context
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.kernel import Environment
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.scheduling import Scheduler
from repro.sim.values import TSVal, bottom_tsval


class _CASOps:
    """Shared plumbing: triggering CAS ops and awaiting their results."""

    def __init__(self) -> None:
        #: the CAS ops a sub-coroutine awaits, and those that responded
        self._awaited: "Set[OpId]" = set()
        self._results: "Dict[OpId, Any]" = {}
        #: total Algorithm 1 loop iterations (time-complexity metric)
        self.iterations = 0

    def record(self, op: LowLevelOp) -> None:
        if op.op_id in self._awaited:
            self._results[op.op_id] = op.result

    def forget(self) -> None:
        """Drop what the sub-coroutines of a finished operation awaited."""
        self._awaited.clear()
        self._results.clear()

    def _cas(self, ctx: Context, obj: ObjectId, exp: Any, new: Any):
        """Trigger one CAS and wait for its response (generator)."""
        op = ctx.trigger(obj, OpKind.CAS, exp, new)
        self._awaited.add(op)
        yield lambda: op in self._results
        self._awaited.discard(op)
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


class CASABDClient(ABDClient):
    """ABD client whose per-server primitive is Algorithm 1 over a CAS.

    Only the quorum round differs from :class:`ABDClient`: it spawns one
    sub-coroutine per server running ``write_max``/``read_max`` against
    that server's CAS object, and completes when ``n - f`` of them
    finish.  A crashed server's coroutine simply never completes —
    exactly the failure mode ABD tolerates.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.v0 = bottom_tsval(self.initial_value)
        self.ops = _CASOps()

    @property
    def iterations(self) -> int:
        return self.ops.iterations

    def _quorum(self, ctx: Context, kind: OpKind, args: tuple):
        """One round of emulated ``read-max`` or ``write-max(*args)``."""
        results: "List[TSVal]" = []

        def server_task(obj: ObjectId):
            if kind is OpKind.READ_MAX:
                value = yield from self.ops.read_max(ctx, obj, self.v0)
                results.append(value)
            else:
                yield from self.ops.write_max(ctx, obj, *args, self.v0)

        handles = [ctx.spawn(server_task(obj)) for obj in self.object_ids]
        yield ctx.count_done(handles, self.n - self.f)
        return results

    def make_operation(self, ctx: Context, name: str, args: tuple):
        return self._forgetting(super().make_operation(ctx, name, args))

    def _forgetting(self, operation):
        # The per-server sub-coroutines still running end with the
        # operation; what they awaited must not outlive it.
        result = yield from operation
        self.ops.forget()
        return result

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
