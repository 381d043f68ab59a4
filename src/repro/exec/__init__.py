"""The parallel experiment engine.

Turns the experiment registry (:mod:`repro.experiments`) into a
parallel, resumable, cached grid runner:

* :mod:`repro.exec.grid` — :class:`Cell` / :class:`Grid`: expand a
  parameter space (including replicate seeds) into independent,
  picklable work units; :func:`expand_experiment` shards registered
  sweep experiments along their declared axis.
* :mod:`repro.exec.cache` — :class:`ResultCache`: one JSON file per
  cell under ``.repro_cache/``, keyed by a content hash of experiment
  id + normalized kwargs + seed + code version, with hit/miss/store
  accounting.
* :mod:`repro.exec.engine` — one cell path for every executor:
  :func:`~repro.exec.engine.run_cell` runs and measures a cell,
  :func:`run_cell_payload` turns an ``Exception`` into a failed payload
  (``KeyboardInterrupt`` / ``SystemExit`` propagate), and one archive
  format and one payload -> :class:`CellOutcome` conversion serve the
  cache, the pool and the queue; :func:`run_cells` (serial loop or
  crash-tolerant ``ProcessPoolExecutor`` fan-out with streamed per-cell
  progress), :func:`merge_results` and :func:`run_experiment_grid`.
* :mod:`repro.exec.queue` — the distributed experiment queue: a shared
  experiment table (:class:`SqliteQueue` behind the
  :class:`~repro.exec.queue.QueueBackend` protocol) that any number of
  workers on any machine drain with atomic claim/execute/write-back
  loops, plus the ``table|csv|md|latex`` result exporter.

The CLI flags ``--jobs`` / ``--no-cache`` / ``--refresh`` /
``--cache-dir`` / ``--export`` on ``repro experiment|sweep|ablate`` and
the ``repro queue`` command family are thin wrappers over this package.
"""

from repro.exec.cache import ResultCache, cell_key, experiment_code_version
from repro.exec.engine import (
    CellOutcome,
    EngineReport,
    merge_results,
    run_cell_payload,
    run_cells,
    run_experiment_grid,
)
from repro.exec.grid import Cell, Grid, expand_experiment
from repro.exec.queue import (
    QueueBackend,
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
    "Grid",
    "QueueBackend",
    "QueueCell",
    "QueueWorker",
    "ResultCache",
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
