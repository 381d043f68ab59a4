"""The grid engine: run experiment cells serially or on a process pool.

Every executor runs a cell the same way:

* :func:`run_cell` — run and measure one cell in-process; the only code
  that calls a registered experiment.
  :func:`repro.experiments.run_experiment` calls it directly, so its
  exceptions reach the caller unchanged.
* :func:`run_cell_payload` — the one failure rule: an ``Exception``
  becomes a failed plain-data payload carrying its traceback.
  ``KeyboardInterrupt`` and ``SystemExit`` are not cell failures; they
  propagate.  Serial :func:`run_cells`, its fork pool and
  :class:`~repro.exec.queue.QueueWorker` all run cells through it.
* :func:`cell_archive` / :func:`outcome_from_payload` — the one archive
  format (what the :class:`~repro.exec.cache.ResultCache` and the queue
  table store) and the one payload -> :class:`CellOutcome` conversion.

:func:`run_cells` runs many cells: ``jobs <= 1`` loops in-process;
``jobs > 1`` fans the cache misses out to a ``ProcessPoolExecutor``,
streams per-cell progress (simulated steps, steps/sec, wall-clock) as
futures complete, and survives worker crashes: when the pool breaks,
the unfinished cells are re-run one-per-fresh-pool so the crashing cell
is identified and marked failed while innocent bystanders still
complete.  :func:`run_experiment_grid` — expand + run + merge for one
experiment (the CLI's path): shardable sweeps fan out across their axis
and the per-cell row blocks are concatenated back in axis order, making
the parallel table byte-identical to the serial one.

Everything crossing the process boundary is plain data: cells are frozen
dataclasses of primitives and results travel as ``to_dict()`` payloads
(workers are told nothing about live kernels — that is the point of
:class:`~repro.core.emulation.EmulationSpec` and friends).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exec.cache import ResultCache
from repro.exec.grid import Cell, expand_experiment

_MP_CONTEXT: "Optional[multiprocessing.context.BaseContext]"
try:
    # Fork keeps workers identical to the parent (same registry state,
    # including experiments registered at runtime) and skips re-import.
    _MP_CONTEXT = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover — non-POSIX platforms
    _MP_CONTEXT = None

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
    ``SystemExit``) propagates: Ctrl-C stops a serial run, a pool run
    and a queue worker alike, and a queue row it interrupts stays
    claimed until ``repro queue reset --stale`` reopens it.  Only a
    process death surfaces to a pool's parent, as a broken pool.
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


def cached_payload(
    cache: "Optional[ResultCache]", cell: Cell, refresh: bool
) -> "Optional[Dict[str, Any]]":
    """A fresh cache entry for ``cell`` as a zero-step payload, or ``None``."""
    if cache is None or refresh:
        return None
    archive = cache.load(cell)
    if archive is None:
        return None
    return {"ok": True, "result": archive["result"], "steps": 0, "elapsed": 0.0}


def cell_archive(cell: Cell, payload: "Dict[str, Any]") -> "Dict[str, Any]":
    """The archived form of a successful payload (cache entry, queue row)."""
    return {
        "result": payload["result"],
        "steps": payload["steps"],
        "elapsed": payload["elapsed"],
        "cell": cell.describe(),
    }


def outcome_from_payload(
    cell: Cell, payload: "Dict[str, Any]", cached: bool = False
) -> CellOutcome:
    """The :class:`CellOutcome` a payload stands for."""
    from repro.experiments import ExperimentResult

    if not payload["ok"]:
        return CellOutcome(
            cell, FAILED, error=payload["error"], elapsed=payload["elapsed"]
        )
    return CellOutcome(
        cell,
        CACHED if cached else OK,
        result=ExperimentResult.from_dict(payload["result"]),
        steps=payload["steps"],
        elapsed=payload["elapsed"],
    )


def run_cells(
    cells: "Sequence[Cell]",
    jobs: int = 1,
    cache: "Optional[ResultCache]" = None,
    refresh: bool = False,
    progress: "Optional[Callable[[str], None]]" = None,
) -> EngineReport:
    """Run every cell; outcomes come back in input order regardless of
    completion order, so downstream merging is deterministic."""
    started = time.perf_counter()
    emit = progress or (lambda message: None)
    outcomes: "Dict[int, CellOutcome]" = {}

    def settle(
        index: int, payload: "Dict[str, Any]", cached: bool = False
    ) -> None:
        cell = cells[index]
        outcomes[index] = outcome_from_payload(cell, payload, cached)
        if cache is not None and payload["ok"] and not cached:
            cache.store(cell, cell_archive(cell, payload))
        emit(outcomes[index].describe())

    # Serve what we can from the cache up front (hits skip the pool).
    pending: "List[int]" = []
    for index, cell in enumerate(cells):
        hit = cached_payload(cache, cell, refresh)
        if hit is not None:
            settle(index, hit, cached=True)
        else:
            pending.append(index)

    if jobs <= 1:
        for index in pending:
            settle(index, run_cell_payload(cells[index]))
    else:
        _run_pool(cells, pending, jobs, settle)

    report = EngineReport(
        outcomes=[outcomes[i] for i in range(len(cells))],
        elapsed=time.perf_counter() - started,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
    )
    emit(report.summary())
    return report


def _run_pool(
    cells: "Sequence[Cell]",
    pending: "List[int]",
    jobs: int,
    settle: "Callable[[int, Dict[str, Any]], None]",
) -> None:
    """Fan ``pending`` out to a pool; isolate survivors of a pool break."""
    settled: "Set[int]" = set()
    unfinished: "List[int]" = []
    try:
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=_MP_CONTEXT
        ) as pool:
            futures = {
                pool.submit(run_cell_payload, cells[index]): index for index in pending
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    unfinished.append(index)
                    continue
                settle(index, payload)
                settled.add(index)
    except BrokenProcessPool:
        unfinished = [i for i in pending if i not in settled]

    # A worker died mid-run and took the pool with it.  Every unfinished
    # cell gets one isolated single-worker pool: the innocent ones finish
    # normally, the crashing one breaks only its own pool and is marked
    # failed — the grid completes either way.
    for index in sorted(set(unfinished)):
        start = time.perf_counter()
        try:
            with ProcessPoolExecutor(
                max_workers=1, mp_context=_MP_CONTEXT
            ) as solo:
                payload = solo.submit(run_cell_payload, cells[index]).result()
        except BrokenProcessPool:
            payload = {
                "ok": False,
                "error": "worker process crashed (pool broken)",
                "elapsed": time.perf_counter() - start,
            }
        settle(index, payload)


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
    cache: "Optional[ResultCache]" = None,
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
