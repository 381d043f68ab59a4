"""The experiment table: the one result store and the one executor.

A grid is enqueued into an experiment table — one row per
:class:`~repro.exec.grid.Cell` holding its inputs, status, result and
error, keyed by the cell's content hash
(:func:`~repro.exec.cache.cell_key`) — and any number of workers on any
machine run a claim/execute/write-back loop against it
(py_experimenter's model, adapted to our content-addressed cells).  The
same table is the local result cache: ``repro experiment|sweep|ablate``
enqueue into ``<--cache-dir>/cells.sqlite``, serve its DONE rows as
hits and drain the rest with ``--jobs`` workers
(:func:`repro.exec.engine.run_cells`).

* :mod:`repro.exec.queue.backend` — the row model
  (:class:`QueueCell`, ``open|claimed|done|failed``).
* :mod:`repro.exec.queue.sqlite` — :class:`SqliteQueue`: the table
  over one database file (atomic CAS claims, on a shared path for a
  distributed sweep).
* :mod:`repro.exec.queue.worker` — :class:`QueueWorker`: the loop,
  with heartbeat renewal, code-version refusal
  (:class:`~repro.errors.CodeVersionMismatch`) and stolen-claim
  detection (:class:`~repro.errors.CellClaimLost`).
* :mod:`repro.exec.queue.export` — per-experiment merge in enqueue
  order plus ``table|csv|md|latex`` renderers (also backing the
  ``--export`` flag of local runs).

The CLI face is ``repro queue create|work|status|reset|export``;
programmatically, :func:`enqueue_cells` + :meth:`QueueWorker.run` +
:func:`export_queue` drain a grid into the table the serial engine
renders.  A worker runs each cell through the engine's
:func:`~repro.exec.engine.run_cell_payload`, so cells fail, archive and
report exactly as they do in ``repro experiment``.
"""

from repro.exec.queue.backend import (
    CLAIMED,
    DONE,
    FAILED,
    OPEN,
    STATUSES,
    QueueCell,
    QueueStatus,
    cell_to_row,
)
from repro.exec.queue.export import (
    EXPORT_FORMATS,
    export_queue,
    merged_queue_results,
    render_csv,
    render_export,
    render_latex,
    render_markdown,
)
from repro.exec.queue.sqlite import SqliteQueue
from repro.exec.queue.worker import (
    QueueWorker,
    WorkerReport,
    default_worker_id,
    enqueue_cells,
)

__all__ = [
    "CLAIMED",
    "DONE",
    "EXPORT_FORMATS",
    "FAILED",
    "OPEN",
    "STATUSES",
    "QueueCell",
    "QueueStatus",
    "QueueWorker",
    "SqliteQueue",
    "WorkerReport",
    "cell_to_row",
    "default_worker_id",
    "enqueue_cells",
    "export_queue",
    "merged_queue_results",
    "render_csv",
    "render_export",
    "render_latex",
    "render_markdown",
]
