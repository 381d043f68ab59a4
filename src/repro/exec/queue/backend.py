"""The shared experiment table's row model.

A queue is a table with one row per :class:`~repro.exec.grid.Cell`,
holding its inputs, status, result and error.  Rows are identified by
the cell's content hash (:func:`~repro.exec.cache.cell_key`), so the
table is also the result cache: a local ``repro experiment`` run serves
a DONE row with the same key instead of re-running the cell, and a
finished distributed sweep doubles as a portable result archive.

The row lifecycle is ``open -> claimed -> done | failed``; ``reset``
moves ``failed`` rows (and ``claimed`` rows whose owner stopped
heartbeating) back to ``open``.  Every transition is a compare-and-swap
predicated on the *current* status (and, past the claim, on the owner),
so two workers racing for one cell resolve to exactly one winner and a
worker whose claim was stolen by a reset cannot overwrite the thief's
result — it gets :class:`~repro.errors.CellClaimLost` instead.

:class:`~repro.exec.queue.sqlite.SqliteQueue` stores the rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exec.grid import Cell

#: row lifecycle states.
OPEN, CLAIMED, DONE, FAILED = "open", "claimed", "done", "failed"

#: every state, in lifecycle order (status displays follow this order).
STATUSES = (OPEN, CLAIMED, DONE, FAILED)


@dataclass
class QueueCell:
    """One row of the shared experiment table."""

    cell_id: str  # content hash: cell_key(cell, code_version)
    index: int  # enqueue position: the deterministic merge order
    experiment_id: str
    params_json: str  # JSON object of the cell's kwargs (no seed)
    seed: "Optional[int]"
    code_version: str  # exec-engine fingerprint at enqueue time
    status: str = OPEN
    owner: "Optional[str]" = None
    heartbeat: "Optional[float]" = None  # unix time of the last renewal
    claimed_at: "Optional[float]" = None
    finished_at: "Optional[float]" = None
    attempts: int = 0  # successful claims so far
    steps: int = 0  # kernel steps the executing worker simulated
    elapsed: float = 0.0  # wall-clock seconds of the execution
    result_json: "Optional[str]" = None  # ExperimentResult.to_dict JSON
    error: "Optional[str]" = None  # traceback text on FAILED

    def cell(self) -> Cell:
        """Rebuild the engine cell this row was enqueued from.

        ``Cell.make`` re-freezes the JSON-decoded params (lists become
        tuples again), so the rebuilt cell hashes to the same
        :func:`~repro.exec.cache.cell_key` the row was enqueued under.
        """
        return Cell.make(
            self.experiment_id, json.loads(self.params_json), self.seed
        )

    def result_payload(self) -> "Optional[Dict[str, Any]]":
        """The archived result payload (``cell_archive`` form), if DONE."""
        if self.result_json is None:
            return None
        payload: "Dict[str, Any]" = json.loads(self.result_json)
        return payload

    def describe(self) -> str:
        label = self.cell().describe()
        extra = f" [{self.status}"
        if self.owner:
            extra += f" by {self.owner}"
        return f"{label}{extra}]"


def cell_to_row(
    cell: Cell, index: int, code_version: str
) -> QueueCell:
    """Build the OPEN row for one engine cell.

    The params must survive a JSON round trip (the queue ships them to
    workers on other machines as text); cells built from CLI-style
    primitives always do.
    """
    from repro.errors import InvalidConfig
    from repro.exec.cache import cell_key

    try:
        params_json = json.dumps(cell.kwargs, sort_keys=True)
    except TypeError as error:
        raise InvalidConfig(
            f"queue cells need JSON-representable params;"
            f" {cell.describe()} does not round-trip: {error}"
        ) from None
    rebuilt = Cell.make(cell.experiment_id, json.loads(params_json), cell.seed)
    if rebuilt != cell:
        raise InvalidConfig(
            f"cell params do not survive a JSON round trip:"
            f" {cell.describe()} != {rebuilt.describe()}"
        )
    return QueueCell(
        cell_id=cell_key(cell, code_version),
        index=index,
        experiment_id=cell.experiment_id,
        params_json=params_json,
        seed=cell.seed,
        code_version=code_version,
    )


@dataclass
class QueueStatus:
    """Aggregate view of a queue (``repro queue status``)."""

    counts: "Dict[str, int]" = field(default_factory=dict)
    stale: int = 0  # claimed rows whose heartbeat expired
    experiments: "List[str]" = field(default_factory=list)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def remaining(self) -> int:
        return self.counts.get(OPEN, 0) + self.counts.get(CLAIMED, 0)

    def summary(self) -> str:
        parts = [
            f"{status}={self.counts.get(status, 0)}" for status in STATUSES
        ]
        return (
            f"queue: cells={self.total} {' '.join(parts)}"
            f" stale={self.stale}"
            f" experiments={','.join(self.experiments) or '-'}"
        )
