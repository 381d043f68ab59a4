"""The parallel experiment engine.

Turns the experiment registry (:mod:`repro.experiments`) into a
parallel, resumable, cached grid runner with one result store and one
executor:

* :mod:`repro.exec.grid` — :class:`Cell`, the independent, picklable
  work unit; :func:`expand_experiment` shards registered sweep
  experiments along their declared axis.
* :mod:`repro.exec.cache` — :func:`cell_key`: the content hash of
  experiment id + normalized kwargs + seed + code version that keys a
  cell's row.
* :mod:`repro.exec.queue` — the experiment table
  (:class:`SqliteQueue`), the only result store: one row per cell with
  its inputs, status, result and error, drained by
  :class:`QueueWorker` claim/execute/write-back loops on any number of
  machines, plus the ``table|csv|md|latex`` result exporter.
* :mod:`repro.exec.engine` — one cell path for every run:
  :func:`~repro.exec.engine.run_cell` runs and measures a cell,
  :func:`run_cell_payload` turns an ``Exception`` into a failed payload
  (``KeyboardInterrupt`` / ``SystemExit`` propagate);
  :func:`run_cells` enqueues cells into a local table (the cache: a
  DONE row is a hit) and drains it with one in-process worker or
  ``jobs`` forked ones; :func:`merge_results` and
  :func:`run_experiment_grid`.

The CLI flags ``--jobs`` / ``--no-cache`` / ``--refresh`` /
``--cache-dir`` / ``--export`` on ``repro experiment|sweep|ablate`` and
the ``repro queue`` command family are thin wrappers over this package.
"""

from repro.exec.cache import cell_key, experiment_code_version
from repro.exec.engine import (
    CellOutcome,
    EngineReport,
    merge_results,
    run_cell_payload,
    run_cells,
    run_experiment_grid,
)
from repro.exec.grid import Cell, expand_experiment
from repro.exec.queue import (
    QueueCell,
    QueueWorker,
    SqliteQueue,
    enqueue_cells,
    export_queue,
    render_export,
)

__all__ = [
    "Cell",
    "CellOutcome",
    "EngineReport",
    "QueueCell",
    "QueueWorker",
    "SqliteQueue",
    "cell_key",
    "enqueue_cells",
    "expand_experiment",
    "experiment_code_version",
    "export_queue",
    "merge_results",
    "render_export",
    "run_cell_payload",
    "run_cells",
    "run_experiment_grid",
]
