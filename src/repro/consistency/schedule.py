"""Schedule formalities of Appendix A.1, as utilities.

The paper works with *schedules*: sequences of invocations and responses.
Our :class:`~repro.sim.history.History` is the same information in record
form; this module supplies the paper's notation over it —

* the per-client projection ``sigma|i`` (:func:`project_client`),
* well-formedness ("each sigma|i is sequential", :func:`is_well_formed`),
* sequential schedules (:func:`is_sequential`, the one neighbour check
  behind ``History.is_write_sequential``, re-exported here for the
  notation's sake).
"""

from __future__ import annotations

from typing import List

from repro.sim.history import History, HistoryOp, is_sequential
from repro.sim.ids import ClientId


def project_client(history: History, client_id: ClientId) -> "List[HistoryOp]":
    """``sigma|i``: the subsequence of client ``i``'s actions."""
    return [op for op in history.all_ops() if op.client_id == client_id]


def is_well_formed(history: History) -> bool:
    """Each client's projection is sequential (well-formed schedules are
    the only ones the paper considers; the client runtime guarantees this
    by construction — one in-flight high-level operation per client)."""
    clients = {op.client_id for op in history.all_ops()}
    return all(
        is_sequential(project_client(history, client_id))
        for client_id in clients
    )
