"""The grid engine: serial/parallel equivalence, crash survival, caching."""

import os

import pytest

from repro.exec import cell_key, run_cells, run_experiment_grid
from repro.exec.engine import CACHED, CELLS_FILE, FAILED, OK, merge_results
from repro.exec.grid import Cell, expand_experiment
from repro.exec.queue import SqliteQueue
from repro.experiments import ExperimentResult, experiment, run_experiment

SWEEP_KWARGS = {"n": 5, "f": 2, "k_max": 3}


@pytest.fixture(autouse=True)
def _fault_experiments():
    """Register fault-injection experiments, cleaning the registry after
    (other tests pin the exact registry contents).  The engine's forked
    queue workers inherit the live registry, so these run in workers too."""
    from repro.experiments import _REGISTRY

    @experiment("X-CRASH")
    def _crashing_experiment(hard: bool = True) -> ExperimentResult:
        # Dies without cleanup, like a segfaulting worker.
        if hard:
            os._exit(42)
        return ExperimentResult("X-CRASH", "no crash", ["ok"], [[1]])

    @experiment("X-RAISE")
    def _raising_experiment() -> ExperimentResult:
        raise RuntimeError("deliberate failure")

    yield
    _REGISTRY.pop("X-CRASH", None)
    _REGISTRY.pop("X-RAISE", None)


class TestSerialParallelEquivalence:
    def test_same_tables_serial_vs_jobs4(self):
        serial = run_experiment("T1-sweep", **SWEEP_KWARGS)
        merged, report = run_experiment_grid("T1-sweep", SWEEP_KWARGS, jobs=4)
        assert not report.failed
        assert merged.render() == serial.render()

    def test_same_tables_with_simulation_and_seeds(self):
        serial = run_experiment("TH2", k_values=(1, 2, 3), seed=1)
        merged, report = run_experiment_grid(
            "TH2", {"k_values": (1, 2, 3)}, seed=1, jobs=2
        )
        assert not report.failed
        assert merged.render() == serial.render()
        assert merged.seed == 1

    def test_parallel_simulates_the_same_steps(self):
        kwargs = {"update_counts": (4, 8, 16)}  # B1 simulates every cell
        _, serial = run_experiment_grid("B1", kwargs, jobs=1)
        _, parallel = run_experiment_grid("B1", kwargs, jobs=2)
        assert parallel.total_steps == serial.total_steps > 0

    def test_outcomes_in_cell_order_not_completion_order(self):
        cells = expand_experiment("T1-sweep", SWEEP_KWARGS)
        report = run_cells(cells, jobs=4)
        assert [o.cell for o in report.outcomes] == cells


class TestCrashSurvival:
    def test_worker_crash_marks_cell_failed_and_grid_continues(
        self, tmp_path
    ):
        cells = [
            Cell.make("T1-sweep", {"n": 5, "f": 2, "k_values": [1]}),
            Cell.make("X-CRASH", {"hard": True}),
            Cell.make("T1-sweep", {"n": 5, "f": 2, "k_values": [2]}),
            Cell.make("TH2", {"k_values": [2]}),
        ]
        report = run_cells(cells, jobs=2, cache=tmp_path)
        statuses = [o.status for o in report.outcomes]
        assert statuses == [OK, FAILED, OK, OK]
        assert report.outcomes[1].error is not None
        # Every bystander ran exactly once: no re-run after the crash.
        table = SqliteQueue(tmp_path / CELLS_FILE)
        try:
            rows = table.lookup([cell_key(cell) for cell in cells])
        finally:
            table.close()
        bystanders = [cells[0], cells[2], cells[3]]
        assert [rows[cell_key(cell)].attempts for cell in bystanders] == [1] * 3

    def test_worker_exception_ships_traceback(self):
        report = run_cells([Cell.make("X-RAISE")], jobs=2)
        (outcome,) = report.outcomes
        assert outcome.status == FAILED
        assert "deliberate failure" in outcome.error

    def test_serial_failure_marks_and_continues(self):
        cells = [
            Cell.make("X-RAISE"),
            Cell.make("T1-sweep", {"n": 5, "f": 2, "k_values": [1]}),
        ]
        report = run_cells(cells, jobs=1)
        assert [o.status for o in report.outcomes] == [FAILED, OK]

    def test_all_cells_failed_raises(self):
        with pytest.raises(RuntimeError):
            run_experiment_grid("X-RAISE", {}, jobs=1)


class TestCacheIntegration:
    def test_second_run_all_hits_zero_steps(self, tmp_path):
        kwargs = {"k": 2, "n": 5, "f": 2}  # T1 actually simulates
        cache = tmp_path / "cache"
        merged1, report1 = run_experiment_grid("T1", kwargs, cache=cache)
        assert report1.cache_misses == 1 and report1.total_steps > 0

        merged2, report2 = run_experiment_grid("T1", kwargs, cache=cache)
        assert report2.cache_hits == 1 and report2.cache_misses == 0
        assert report2.total_steps == 0  # nothing simulated at all
        assert [o.status for o in report2.outcomes] == [CACHED]
        assert merged2.render() == merged1.render()

    def test_parallel_run_populates_cache_for_serial(self, tmp_path):
        cache = tmp_path / "cache"
        run_experiment_grid("T1-sweep", SWEEP_KWARGS, jobs=3, cache=cache)
        _, report = run_experiment_grid("T1-sweep", SWEEP_KWARGS, cache=cache)
        assert report.cache_hits == 3

    def test_refresh_bypasses_entries(self, tmp_path):
        cache = tmp_path / "cache"
        run_experiment_grid("T1", {"k": 2, "n": 5, "f": 2}, cache=cache)
        _, report = run_experiment_grid(
            "T1", {"k": 2, "n": 5, "f": 2}, cache=cache, refresh=True
        )
        assert report.total_steps > 0  # recomputed despite a fresh entry

    def test_a_run_reads_only_its_own_rows(self, tmp_path, monkeypatch):
        # The local table keeps every run's rows; enqueueing, draining
        # and serving hits must ask for rows by key, never scan them all.
        def scan(self, status=None):
            raise AssertionError("full-table read")

        cache = tmp_path / "cache"
        run_experiment_grid("T1-sweep", SWEEP_KWARGS, cache=cache)
        monkeypatch.setattr(SqliteQueue, "rows", scan)
        for jobs in (1, 2):
            _, report = run_experiment_grid(
                "TH2", {"k_values": (1, 2)}, jobs=jobs, cache=cache
            )
            assert not report.failed
        table = SqliteQueue(cache / CELLS_FILE)
        try:
            assert table.drained()
        finally:
            table.close()

    def test_failed_cells_are_not_cached(self, tmp_path):
        cache = tmp_path / "cache"
        report = run_cells([Cell.make("X-RAISE")], jobs=1, cache=cache)
        assert report.outcomes[0].status == FAILED
        again = run_cells([Cell.make("X-RAISE")], jobs=1, cache=cache)
        assert again.outcomes[0].status == FAILED
        assert (again.cache_hits, again.cache_misses) == (0, 1)


class TestMergeAndProgress:
    def test_merge_skips_failed_shards(self):
        a = ExperimentResult("E", "t", ["h"], [[1]])
        b = ExperimentResult("E", "t", ["h"], [[2]])
        merged = merge_results([a, None, b])
        assert merged.rows == [[1], [2]]

    def test_merge_nothing_raises(self):
        with pytest.raises(ValueError):
            merge_results([None])

    def test_progress_stream_reports_every_cell_and_summary(self):
        lines = []
        run_cells(
            expand_experiment("T1-sweep", SWEEP_KWARGS),
            jobs=2,
            progress=lines.append,
        )
        assert len(lines) == 4  # 3 cells + summary
        assert lines[-1].startswith("engine: cells=3")
        assert any("steps/s" in line or "steps," in line for line in lines)

    def test_run_experiment_seed_recorded_in_payload(self):
        result = run_experiment("T1", k=2, n=5, f=2, seed=4)
        assert result.to_dict()["seed"] == 4
