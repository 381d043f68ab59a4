"""The grid engine: run experiment cells through the cell table.

Every cell runs the same way:

* :func:`run_cell` — run and measure one cell in-process; the only code
  that calls a registered experiment.
  :func:`repro.experiments.run_experiment` calls it directly, so its
  exceptions reach the caller unchanged.
* :func:`run_cell_payload` — the one failure rule: an ``Exception``
  becomes a failed plain-data payload carrying its traceback.
  ``KeyboardInterrupt`` and ``SystemExit`` are not cell failures; they
  propagate.  :class:`~repro.exec.queue.QueueWorker`, the only
  executor, runs every cell through it.
* :func:`cell_archive` / :func:`outcome_from_payload` — the one archive
  format (what a DONE row of the cell table stores) and the one
  payload -> :class:`CellOutcome` conversion.

:func:`run_cells` runs many cells through one cell table
(:class:`~repro.exec.queue.SqliteQueue`), which is also the result
cache: a DONE row with a cell's key is a hit, and the rest are drained
by one in-process worker (``jobs <= 1``) or ``jobs`` forked ones.  A
forked worker that dies mid-cell has its row marked failed and is
replaced while open rows remain, so the grid completes and no
bystander runs twice.
:func:`run_experiment_grid` — expand + run + merge for one experiment
(the CLI's path): shardable sweeps fan out across their axis and the
per-cell row blocks are concatenated back in axis order, making the
parallel table byte-identical to the serial one.

Everything crossing the process boundary is plain data: cells are frozen
dataclasses of primitives and results travel as ``to_dict()`` payloads
(workers are told nothing about live kernels — that is the point of
:class:`~repro.core.emulation.EmulationSpec` and friends).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.exec.cache import cell_key
from repro.exec.grid import Cell, expand_experiment

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.exec.queue import QueueCell, SqliteQueue

#: the cell table's file under a cache directory.
CELLS_FILE = "cells.sqlite"

#: how a forked worker reports that a cell raised ``KeyboardInterrupt``
#: or ``SystemExit`` (the parent raises it again).
_INTERRUPTED, _EXITED = 130, 131

#: outcome states a cell can end in.
OK, CACHED, FAILED = "ok", "cached", "failed"


@dataclass
class CellOutcome:
    """What happened to one cell."""

    cell: Cell
    status: str  # OK | CACHED | FAILED
    result: Any = None  # ExperimentResult on OK/CACHED, else None
    error: "Optional[str]" = None  # traceback text on FAILED
    steps: int = 0  # kernel steps simulated for this cell
    elapsed: float = 0.0  # wall-clock seconds

    @property
    def steps_per_sec(self) -> float:
        return self.steps / self.elapsed if self.elapsed > 0 else 0.0

    def describe(self) -> str:
        label = self.cell.describe()
        if self.status == CACHED:
            return f"{label}: cache hit ({self.elapsed * 1000:.0f}ms)"
        if self.status == FAILED:
            reason = (self.error or "").strip().splitlines()
            return f"{label}: FAILED ({reason[-1] if reason else 'unknown'})"
        return (
            f"{label}: {self.steps} steps,"
            f" {self.steps_per_sec:,.0f} steps/s,"
            f" {self.elapsed:.2f}s"
        )


@dataclass
class EngineReport:
    """Aggregate accounting for one :func:`run_cells` invocation."""

    outcomes: "List[CellOutcome]"
    elapsed: float
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def failed(self) -> "List[CellOutcome]":
        return [o for o in self.outcomes if o.status == FAILED]

    @property
    def total_steps(self) -> int:
        return sum(o.steps for o in self.outcomes)

    def results(self) -> "List[Any]":
        """The per-cell ExperimentResults, in cell order (failed -> None)."""
        return [o.result for o in self.outcomes]

    def summary(self) -> str:
        return (
            f"engine: cells={len(self.outcomes)}"
            f" hits={self.cache_hits} misses={self.cache_misses}"
            f" failed={len(self.failed)}"
            f" steps={self.total_steps}"
            f" elapsed={self.elapsed:.2f}s"
        )


def _call_experiment(cell: Cell):
    """Invoke the registered experiment for ``cell`` (raises on error)."""
    import inspect

    from repro.experiments import get_experiment

    fn = get_experiment(cell.experiment_id)
    kwargs = cell.kwargs
    if cell.seed is not None:
        if "seed" in inspect.signature(fn).parameters:
            kwargs["seed"] = cell.seed
    return fn(**kwargs)


def run_cell(cell: Cell) -> "Tuple[Any, int, float]":
    """Run one cell in-process: ``(result, kernel steps, wall seconds)``.

    Raises whatever the experiment raises.  A replicate seed the
    experiment did not record itself is filled into ``result.seed``.
    """
    from repro.sim.kernel import steps_simulated

    start = time.perf_counter()
    steps_before = steps_simulated()
    result = _call_experiment(cell)
    steps = steps_simulated() - steps_before
    elapsed = time.perf_counter() - start
    if result.seed is None and cell.seed is not None:
        result.seed = cell.seed
    return result, steps, elapsed


def run_cell_payload(cell: Cell) -> "Dict[str, Any]":
    """Run a cell, return a plain-data payload.

    An ``Exception`` comes back as ``{"ok": False, "error": traceback}``
    so the grid goes on.  Anything else (``KeyboardInterrupt``,
    ``SystemExit``) propagates: Ctrl-C stops a queue worker, in-process
    or forked, and the row it interrupts stays claimed until
    ``repro queue reset --stale`` reopens it (or, in a local run, until
    :func:`run_cells` reopens it on its way out).
    """
    start = time.perf_counter()
    try:
        result, steps, elapsed = run_cell(cell)
    except Exception:  # noqa: BLE001 — shipped to the caller verbatim
        return {
            "ok": False,
            "error": traceback.format_exc(),
            "elapsed": time.perf_counter() - start,
        }
    return {
        "ok": True,
        "result": result.to_dict(),
        "steps": steps,
        "elapsed": elapsed,
    }


def cell_archive(cell: Cell, payload: "Dict[str, Any]") -> "Dict[str, Any]":
    """The archived form of a successful payload (a DONE row)."""
    return {
        "result": payload["result"],
        "steps": payload["steps"],
        "elapsed": payload["elapsed"],
        "cell": cell.describe(),
    }


def outcome_from_payload(cell: Cell, payload: "Dict[str, Any]") -> CellOutcome:
    """The :class:`CellOutcome` a payload stands for."""
    from repro.experiments import ExperimentResult

    if not payload["ok"]:
        return CellOutcome(
            cell, FAILED, error=payload["error"], elapsed=payload["elapsed"]
        )
    return CellOutcome(
        cell,
        OK,
        result=ExperimentResult.from_dict(payload["result"]),
        steps=payload["steps"],
        elapsed=payload["elapsed"],
    )


def _row_outcome(cell: Cell, row: "QueueCell", cached: bool) -> CellOutcome:
    """The outcome a finished row stands for; a hit simulated nothing."""
    archive = row.result_payload()
    if archive is None:
        return CellOutcome(cell, FAILED, error=row.error, elapsed=row.elapsed)
    outcome = outcome_from_payload(cell, {"ok": True, **archive})
    if cached:
        return replace(outcome, status=CACHED, steps=0, elapsed=0.0)
    return outcome


def run_cells(
    cells: "Sequence[Cell]",
    jobs: int = 1,
    cache: "Optional[Union[str, os.PathLike]]" = None,
    refresh: bool = False,
    progress: "Optional[Callable[[str], None]]" = None,
) -> EngineReport:
    """Run every cell through the cell table in the ``cache`` directory.

    ``cache=None`` uses a throwaway table in a temporary directory.  A
    DONE row with a cell's key is a cache hit; ``refresh`` reopens this
    run's DONE rows instead, and FAILED rows always run again.  Outcomes
    come back in input order regardless of completion order, so
    downstream merging is deterministic; each cell's progress line and
    the summary go to ``progress`` once the table is drained.  Raises
    :class:`~repro.errors.InvalidConfig` if a cell's params do not
    survive a JSON round trip.
    """
    from repro.exec.queue import DONE, FAILED as ROW_FAILED, enqueue_cells

    started = time.perf_counter()
    emit = progress or (lambda message: None)
    with _cell_table(cache) as table:
        enqueue_cells(table, cells)
        ids = [cell_key(cell) for cell in cells]
        before = table.lookup(ids).items()
        hits = set() if refresh else {i for i, row in before if row.status == DONE}
        table.reset(
            cell_ids=[
                i
                for i, row in before
                if row.status in (DONE, ROW_FAILED) and i not in hits
            ]
        )
        owners = _drain(table, ids, jobs)
        rows = table.lookup(ids)
    report = EngineReport(
        outcomes=[
            _row_outcome(cell, rows[cell_id], cell_id in hits)
            for cell, cell_id in zip(cells, ids)
        ],
        elapsed=time.perf_counter() - started,
        cache_hits=sum(cell_id in hits for cell_id in ids),
        cache_misses=sum(
            cell_id not in hits and rows[cell_id].owner in owners
            for cell_id in ids
        ),
    )
    for outcome in report.outcomes:
        emit(outcome.describe())
    emit(report.summary())
    return report


@contextlib.contextmanager
def _cell_table(
    cache: "Optional[Union[str, os.PathLike]]",
) -> "Iterator[SqliteQueue]":
    """The cell table under ``cache``, or a throwaway one."""
    from repro.exec.queue import SqliteQueue

    with contextlib.ExitStack() as stack:
        root = cache
        if root is None:
            root = stack.enter_context(tempfile.TemporaryDirectory())
        table = SqliteQueue(Path(root) / CELLS_FILE)
        stack.callback(table.close)
        yield table


def _drain(table: "SqliteQueue", ids: "List[str]", jobs: int) -> "Set[str]":
    """Work this run's rows until each is DONE or FAILED; returns the
    ids of the workers this run started.

    Rows another process holds are waited for, and reopened once their
    heartbeat is stale, as ``repro queue reset --stale`` does.  If the
    run is interrupted, its own workers' claims are reopened on the way
    out, so it leaves no claimed row behind.
    """
    from repro.exec.queue import CLAIMED, OPEN, QueueWorker
    from repro.exec.queue.worker import HEARTBEAT_TTL, default_worker_id

    owners: "Set[str]" = set()
    try:
        while True:
            if jobs <= 1:
                owners.add(default_worker_id())
                QueueWorker(table).run(cell_ids=ids)
            else:
                _fork_workers(table, ids, jobs, owners)
            busy = {row.status for row in table.lookup(ids).values()}
            busy &= {OPEN, CLAIMED}
            if not busy:
                return owners
            if busy == {CLAIMED} and not table.reset(
                stale_before=time.time() - HEARTBEAT_TTL
            ):
                time.sleep(1.0)
    except BaseException:
        table.reset(
            cell_ids=[
                row.cell_id
                for row in table.lookup(ids).values()
                if row.status == CLAIMED and row.owner in owners
            ]
        )
        raise


def _fork_workers(
    table: "SqliteQueue", ids: "List[str]", jobs: int, owners: "Set[str]"
) -> None:
    """Drain this run's OPEN rows with up to ``jobs`` forked workers.

    A worker that dies holding a claim gets that row marked failed and,
    while OPEN rows remain, a replacement.  A cell's
    ``KeyboardInterrupt`` / ``SystemExit`` in a worker is raised here.
    Every worker is reaped (killed, if still running) before returning.
    """
    from repro.errors import QueueError
    from repro.exec.queue import CLAIMED, FAILED as ROW_FAILED, OPEN
    from repro.exec.queue.worker import default_worker_id

    # Fork keeps workers identical to the parent (same registry state,
    # including experiments registered at runtime) and skips re-import;
    # the parent runs no worker thread of its own while it forks.
    context = multiprocessing.get_context("fork")
    children: "Dict[Any, Tuple[Any, str]]" = {}

    def open_rows() -> int:
        return sum(row.status == OPEN for row in table.lookup(ids).values())

    def fork() -> None:
        worker_id = f"{default_worker_id()}-{len(owners)}"
        owners.add(worker_id)
        child = context.Process(
            target=_work, args=(str(table.path), worker_id, ids)
        )
        child.start()
        children[child.sentinel] = (child, worker_id)

    try:
        for _ in range(min(jobs, open_rows())):
            fork()
        while children:
            for sentinel in multiprocessing.connection.wait(list(children)):
                child, worker_id = children.pop(sentinel)
                child.join()
                if child.exitcode == _INTERRUPTED:
                    raise KeyboardInterrupt
                if child.exitcode == _EXITED:
                    raise SystemExit(f"a cell exited worker {worker_id}")
                if child.exitcode == 0:
                    continue
                crashed = f"worker process crashed (exit code {child.exitcode})"
                held = [
                    row.cell_id
                    for row in table.lookup(ids).values()
                    if row.status == CLAIMED and row.owner == worker_id
                ]
                if not held:  # died outside any cell: do not respawn
                    raise QueueError(f"{worker_id}: {crashed} outside any cell")
                for cell_id in held:
                    table.write_back(
                        cell_id, worker_id, ROW_FAILED, time.time(), error=crashed
                    )
                if open_rows():
                    fork()
    finally:
        for child, _ in children.values():
            child.kill()
            child.join()


def _work(path: str, worker_id: str, ids: "List[str]") -> None:
    """A forked worker: its own connection, since none crosses a fork."""
    from repro.exec.queue import QueueWorker, SqliteQueue

    table = SqliteQueue(path)
    try:
        QueueWorker(table, worker_id=worker_id).run(cell_ids=ids)
    except KeyboardInterrupt:
        sys.exit(_INTERRUPTED)
    except SystemExit:
        sys.exit(_EXITED)
    finally:
        table.close()


def merge_results(results: "Sequence[Any]"):
    """Concatenate sharded sweep results back into one table.

    ``results`` must be in cell (axis) order; ``None`` entries (failed
    cells) are skipped.  Title/headers/notes come from the first shard,
    so merging the shards of :func:`expand_experiment` reproduces the
    unsharded experiment's rendering byte-for-byte when nothing failed.
    """
    from repro.errors import NoMergeableResults
    from repro.experiments import ExperimentResult

    survivors = [r for r in results if r is not None]
    if not survivors:
        raise NoMergeableResults("no successful cells to merge")
    first = survivors[0]
    if len(survivors) == 1 and len(results) == 1:
        return first
    return ExperimentResult(
        experiment_id=first.experiment_id,
        title=first.title,
        headers=list(first.headers),
        rows=[row for result in survivors for row in result.rows],
        notes=first.notes,
        seed=first.seed,
    )


def run_experiment_grid(
    experiment_id: str,
    kwargs: "Optional[Mapping[str, Any]]" = None,
    seed: "Optional[int]" = None,
    jobs: int = 1,
    cache: "Optional[Union[str, os.PathLike]]" = None,
    refresh: bool = False,
    progress: "Optional[Callable[[str], None]]" = None,
):
    """Expand one experiment into cells, run them, merge the shards.

    Returns ``(merged ExperimentResult, EngineReport)``.  Raises
    :class:`~repro.errors.GridFailed` (a ``RuntimeError``) if every
    cell failed; partial failures merge the surviving shards and are
    visible in the report.  Serial and ``jobs`` runs produce
    byte-identical merged tables.
    """
    from repro.errors import GridFailed, NoMergeableResults

    cells = expand_experiment(experiment_id, kwargs, seed)
    report = run_cells(
        cells, jobs=jobs, cache=cache, refresh=refresh, progress=progress
    )
    try:
        merged = merge_results(report.results())
    except NoMergeableResults:
        errors = "\n".join(
            outcome.describe() for outcome in report.failed
        )
        raise GridFailed(
            f"every cell of {experiment_id!r} failed:\n{errors}"
        ) from None
    return merged, report
