"""The queue worker: claim -> execute -> write-back, with heartbeats.

A worker is a loop over the shared table: pick the lowest-index OPEN
row, win it with a compare-and-swap claim, execute the cell with the
exact single-cell code path the local engine uses
(:func:`repro.exec.engine.run_cell_payload`), and CAS the result back.
While a cell executes, a daemon thread renews the claim's heartbeat
through the same backend handle, so a live worker on a slow cell is
distinguishable from a dead one — ``repro queue reset --stale`` only
reopens claims whose heartbeat actually expired.

The worker is the only executor of cells: ``repro queue work`` runs
one, and a local ``repro experiment|sweep|ablate`` runs one in-process
(``--jobs 1``) or forks ``--jobs N`` of them on its cell table
(:func:`repro.exec.engine.run_cells`).  A table drained by workers is a
result cache: ``--cache-dir D`` serves the DONE rows of
``D/cells.sqlite`` with zero kernel steps.

Version safety: every row records the exec-engine code fingerprint it
was enqueued under (:func:`~repro.exec.cache.experiment_code_version`).
A worker whose checkout fingerprints differently refuses to claim the
row with :class:`~repro.errors.CodeVersionMismatch` — the distributed
mirror of the versioned cell keys, so a stale worker can never write
a stale result into a fresh table.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from repro.errors import CellClaimLost, CodeVersionMismatch, QueueError
from repro.exec.cache import experiment_code_version
from repro.exec.engine import (
    cell_archive,
    outcome_from_payload,
    run_cell_payload,
)
from repro.exec.grid import Cell
from repro.exec.queue.backend import DONE, FAILED, QueueCell, cell_to_row
from repro.exec.queue.sqlite import SqliteQueue

#: how many OPEN rows a worker reads per claim attempt; losing a CAS
#: race falls through to the next candidate instead of re-querying.
CLAIM_BATCH = 8

#: seconds a claim may go without a heartbeat before it counts as stale.
HEARTBEAT_TTL = 30.0


def default_worker_id() -> str:
    """hostname-pid: unique across the boxes sharing one queue file."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerReport:
    """What one :meth:`QueueWorker.run` invocation did."""

    worker_id: str
    claimed: int = 0
    done: int = 0
    failed: int = 0
    lost: int = 0  # claims stolen before write-back (results discarded)
    steps: int = 0
    elapsed: float = 0.0
    outcomes: "Dict[str, object]" = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"worker {self.worker_id}: claimed={self.claimed}"
            f" done={self.done} failed={self.failed} lost={self.lost}"
            f" steps={self.steps}"
            f" elapsed={self.elapsed:.2f}s"
        )


class _Heartbeat(threading.Thread):
    """Renews one claim's heartbeat until stopped."""

    def __init__(
        self,
        backend: SqliteQueue,
        cell_id: str,
        owner: str,
        interval: float,
        clock: "Callable[[], float]",
    ):
        super().__init__(daemon=True)
        self._backend = backend
        self._cell_id = cell_id
        self._owner = owner
        self._interval = interval
        self._clock = clock
        # not "_stop": Thread.join() calls a private _stop() internally.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            if not self._backend.renew_heartbeat(
                self._cell_id, self._owner, self._clock()
            ):
                return  # claim gone; write-back will surface the loss

    def stop(self) -> None:
        self._halt.set()
        self.join()


class QueueWorker:
    """One claim/execute/write-back loop over a shared experiment table.

    ``ttl`` is the heartbeat contract: the worker renews every
    ``ttl / 4`` seconds, and anything that stops renewing for ``ttl``
    is fair game for ``reset --stale``.  ``check_version=False`` skips
    the code-fingerprint guard (for tooling that knowingly replays old
    tables).
    """

    def __init__(
        self,
        backend: SqliteQueue,
        worker_id: "Optional[str]" = None,
        ttl: float = HEARTBEAT_TTL,
        check_version: bool = True,
        progress: "Optional[Callable[[str], None]]" = None,
        clock: "Callable[[], float]" = time.time,
    ):
        if ttl <= 0:
            raise QueueError(f"heartbeat ttl must be positive, got {ttl}")
        self.backend = backend
        self.worker_id = worker_id or default_worker_id()
        self.ttl = ttl
        self.check_version = check_version
        self.clock = clock
        self._emit = progress or (lambda message: None)

    # -- the loop -------------------------------------------------------

    def run(
        self,
        max_cells: "Optional[int]" = None,
        cell_ids: "Optional[Sequence[str]]" = None,
    ) -> WorkerReport:
        """Claim and execute cells until the queue has no OPEN rows
        (or ``max_cells`` cells were claimed); returns the tally.

        ``cell_ids`` limits the claims to those rows: a local run works
        only its own cells of a table that keeps every run's rows.
        """
        report = WorkerReport(worker_id=self.worker_id)
        started = time.perf_counter()
        while max_cells is None or report.claimed < max_cells:
            row = self._claim_one(cell_ids)
            if row is None:
                break
            report.claimed += 1
            self._execute(row, report)
        report.elapsed = time.perf_counter() - started
        self._emit(report.summary())
        return report

    def _claim_one(
        self, cell_ids: "Optional[Sequence[str]]"
    ) -> "Optional[QueueCell]":
        """Win one OPEN row, or None when none remain."""
        while True:
            candidates = self.backend.next_open(CLAIM_BATCH, cell_ids)
            if not candidates:
                return None
            for row in candidates:
                self._check_version(row)
                if self.backend.try_claim(
                    row.cell_id, self.worker_id, self.clock()
                ):
                    return row
            # Every candidate was claimed between the read and our CAS;
            # re-read — either more rows are open or the queue drained.

    def _check_version(self, row: QueueCell) -> None:
        if not self.check_version:
            return
        local = experiment_code_version(row.experiment_id)
        if local != row.code_version:
            raise CodeVersionMismatch(
                f"cell {row.cell_id[:12]}… of {row.experiment_id!r} was"
                f" enqueued under code version {row.code_version[:12]}…"
                f" but this worker runs {local[:12]}…; update the worker"
                " checkout (or re-create the queue, or pass"
                " --no-version-check to knowingly ignore the skew)"
            )

    def _execute(self, row: QueueCell, report: WorkerReport) -> None:
        cell = row.cell()
        heartbeat = _Heartbeat(
            self.backend,
            row.cell_id,
            self.worker_id,
            interval=max(self.ttl / 4.0, 0.05),
            clock=self.clock,
        )
        heartbeat.start()
        try:
            payload = run_cell_payload(cell)
        finally:
            heartbeat.stop()
        try:
            self._write_back(row, cell, payload)
        except CellClaimLost as error:
            report.lost += 1
            self._emit(f"{cell.describe()}: {error}")
            return
        outcome = outcome_from_payload(cell, payload)
        if outcome.status == FAILED:
            report.failed += 1
        else:
            report.done += 1
            report.steps += outcome.steps
        report.outcomes[row.cell_id] = outcome
        self._emit(outcome.describe())

    def _write_back(
        self, row: QueueCell, cell: Cell, payload: "Dict[str, Any]"
    ) -> None:
        """CAS the outcome into the table."""
        if payload["ok"]:
            self.backend.write_back(
                row.cell_id,
                self.worker_id,
                DONE,
                self.clock(),
                result_json=json.dumps(
                    cell_archive(cell, payload), sort_keys=True
                ),
                steps=payload["steps"],
                elapsed=payload["elapsed"],
            )
        else:
            self.backend.write_back(
                row.cell_id,
                self.worker_id,
                FAILED,
                self.clock(),
                error=payload["error"],
                elapsed=payload["elapsed"],
            )


# ---------------------------------------------------------------------------
# Enqueue


def enqueue_cells(backend: SqliteQueue, cells: "Sequence[Cell]") -> int:
    """Append ``cells`` as OPEN rows (idempotent: present ids are kept).

    Rows are numbered after the existing tail, so a queue fed several
    grids exports each one's cells in its own enqueue order.  Raises
    :class:`~repro.errors.InvalidConfig` before adding anything if a
    cell's params do not survive a JSON round trip.
    """
    rows = [
        cell_to_row(
            cell, index, experiment_code_version(cell.experiment_id)
        )
        for index, cell in enumerate(cells)
    ]
    return backend.enqueue(rows)
