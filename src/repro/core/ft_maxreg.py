"""An f-tolerant max-register from per-server max-registers.

A companion to the ABD emulation: because max-register values are
*monotone*, replicating one max-register per server and using n-f quorums
yields a fault-tolerant max-register directly — no timestamps needed.
This is the natural building block for the monotone coordination services
(epochs, configuration versions, watermarks) that motivate max-registers
in practice, and it inherits Table 1's space bound: 2f+1 base objects at
the minimum server count, independent of the number of writers.

* ``write_max(v)``: trigger ``write-max(v)`` on every server, await n-f.
* ``read_max()``: trigger ``read-max`` on every server, await n-f, return
  the maximum; with ``write_back=True`` the reader writes the maximum
  back to a quorum first (atomicity needs readers to write — the paper's
  Section 5 point), otherwise the emulation is regular.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.emulation import (
    Deployment,
    register_algorithm,
    require_majority,
)
from repro.core.quorums import QuorumClient
from repro.sim.client import Context
from repro.sim.ids import ClientId
from repro.sim.kernel import Environment
from repro.sim.objects import OpKind
from repro.sim.scheduling import Scheduler


class FTMaxRegisterClient(QuorumClient):
    """Quorum-replicated max-register client."""

    def __init__(
        self, n: int, f: int, initial_value: Any, write_back: bool = True
    ):
        super().__init__(n, f)
        self.initial_value = initial_value
        self.write_back = write_back

    def op_write_max(self, ctx: Context, value: Any):
        yield from self._quorum(ctx, OpKind.WRITE_MAX, (value,))
        return "ok"

    def op_read_max(self, ctx: Context):
        responses = yield from self._quorum(ctx, OpKind.READ_MAX, ())
        best = responses[0]
        for candidate in responses[1:]:
            if candidate > best:
                best = candidate
        if self.write_back:
            yield from self._quorum(ctx, OpKind.WRITE_MAX, (best,))
        return best


@register_algorithm("ft-maxreg")
class FTMaxRegister(Deployment):
    """A deployed f-tolerant max-register (n servers, one max-register
    base object each; any number of clients, so the writer/reader split
    only serves the uniform Emulation surface)."""

    WRITE, READ = "write_max", "read_max"
    CONDITION = "max-register-atomic"
    AUTO_IDS = "next-id"

    def __init__(
        self,
        n: int,
        f: int,
        initial_value: Any = 0,
        write_back: bool = True,
        scheduler: "Optional[Scheduler]" = None,
        environment: "Optional[Environment]" = None,
    ):
        require_majority(n, f)
        self.n = n
        self.f = f
        self.write_back = write_back
        super().__init__(
            n,
            [(i, "max-register", initial_value) for i in range(n)],
            initial_value,
            scheduler,
            environment,
        )

    def make_client(self, writer_index, client_id: ClientId):
        return FTMaxRegisterClient(
            self.n, self.f, self.initial_value, self.write_back
        )
