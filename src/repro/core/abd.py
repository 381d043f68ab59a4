"""Multi-writer ABD over one max-register per server.

The paper observes (Section 1, "Results") that the per-server code of
multi-writer ABD can be encapsulated into the ``write-max`` / ``read-max``
primitives of a max-register, so the classic 2f+1 upper bound carries over
to max-register base objects.  This module implements exactly that:

* ``n >= 2f+1`` servers, each storing **one** max-register whose value
  domain is :class:`~repro.sim.values.TSVal` (lexicographic on
  ``(ts, wid)``).
* ``write(v)``: read-max from ``n - f`` servers, pick ``ts = max + 1``,
  write-max ``<ts, wid, v>`` to ``n - f`` servers.
* ``read()``: read-max from ``n - f`` servers, take the maximum; in the
  *atomic* variant the reader writes the maximum back to ``n - f``
  servers before returning (readers must write for atomicity — the
  paper's motivation for studying regularity instead); the *regular*
  variant skips the write-back.

Resource complexity: ``n`` max-registers — ``2f + 1`` when run at the
minimum server count, matching both sides of Table 1's max-register row.
The number of writers is unbounded (no dependence on ``k``).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core.emulation import (
    Deployment,
    register_algorithm,
    require_majority,
)
from repro.core.quorums import QuorumClient
from repro.sim.client import Context
from repro.sim.ids import ClientId, ObjectId
from repro.sim.kernel import Environment
from repro.sim.objects import OpKind
from repro.sim.scheduling import Scheduler
from repro.sim.values import TSVal, bottom_tsval, max_tsval


class ABDClient(QuorumClient):
    """Client-side ABD state machine (writers and readers alike).

    The one ABD in the library: the CAS substrate overrides only the
    quorum round (:class:`~repro.core.cas_maxreg.CASABDClient`), and
    Theorem 5's control runs it unchanged on ``2f`` servers without
    write-back (:mod:`repro.core.theorem5`).
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
        super().__init__(n, f, object_ids)
        self.writer_id = writer_id
        self.initial_value = initial_value
        self.write_back = write_back

    def op_write(self, ctx: Context, value: Any):
        responses = yield from self._quorum(ctx, OpKind.READ_MAX, ())
        ts = max_tsval(responses).ts + 1
        tagged = TSVal(ts=ts, wid=self.writer_id, val=value)
        yield from self._quorum(ctx, OpKind.WRITE_MAX, (tagged,))
        return "ack"

    def op_read(self, ctx: Context):
        responses = yield from self._quorum(ctx, OpKind.READ_MAX, ())
        best = max_tsval(responses)
        if self.write_back:
            yield from self._quorum(ctx, OpKind.WRITE_MAX, (best,))
        return best.val


@register_algorithm("abd")
class ABDEmulation(Deployment):
    """A deployed ABD instance: n servers, one max-register each.

    ``write_back=True`` yields an atomic register; ``write_back=False``
    yields a (WS-)regular one with read-only readers.  Resource
    consumption (``total_objects``) is one base object per server; any
    client may both read and write, so the writer/reader split only
    serves the uniform workload-runner interface.
    """

    CLIENT = ABDClient
    BASE_TYPE = "max-register"
    CONDITION = "atomic"
    AUTO_IDS = "next-id"

    def __init__(
        self,
        n: int,
        f: int,
        initial_value: Any = None,
        write_back: bool = True,
        scheduler: "Optional[Scheduler]" = None,
        environment: "Optional[Environment]" = None,
    ):
        require_majority(n, f)
        self.n = n
        self.f = f
        self.write_back = write_back
        if not write_back:
            self.CONDITION = "ws-regular"
        v0 = bottom_tsval(initial_value)
        super().__init__(
            n,
            [(i, self.BASE_TYPE, v0) for i in range(n)],
            initial_value,
            scheduler,
            environment,
        )

    def make_client(self, writer_index, client_id: ClientId):
        return self.CLIENT(
            self.n,
            self.f,
            writer_id=client_id.index,
            initial_value=self.initial_value,
            write_back=self.write_back,
        )
