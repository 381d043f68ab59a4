"""Queue workers: claim/execute/write-back, caching, versions, races."""

import threading
import time

import pytest

from repro.errors import CodeVersionMismatch, QueueError
from repro.exec import run_cells, run_experiment_grid
from repro.exec.engine import CELLS_FILE, FAILED, OK
from repro.exec.grid import Cell, expand_experiment
from repro.exec.queue import (
    CLAIMED,
    DONE,
    OPEN,
    QueueWorker,
    SqliteQueue,
    enqueue_cells,
    export_queue,
)
from repro.experiments import ExperimentResult, experiment, run_experiment

SWEEP = {"k": 3, "f": 1}


@pytest.fixture
def queue(tmp_path):
    backend = SqliteQueue(tmp_path / "q.db")
    yield backend
    backend.close()


@pytest.fixture(autouse=True)
def _raising_experiment():
    from repro.experiments import _REGISTRY

    @experiment("Q-RAISE")
    def _raise() -> ExperimentResult:
        raise RuntimeError("deliberate failure")

    yield
    _REGISTRY.pop("Q-RAISE", None)


def _cells():
    return expand_experiment("TH1", SWEEP)


class TestSingleWorker:
    def test_drains_the_queue_and_matches_serial(self, queue):
        cells = _cells()
        enqueue_cells(queue, cells)
        report = QueueWorker(queue, worker_id="w1").run()
        assert report.claimed == len(cells)
        assert report.done == len(cells)
        assert report.failed == 0 and report.lost == 0
        assert queue.drained()
        for row in queue.rows():
            assert row.status == DONE
            assert row.owner == "w1"
            assert row.attempts == 1

    def test_max_cells_stops_early(self, queue):
        enqueue_cells(queue, _cells())
        report = QueueWorker(queue, worker_id="w1").run(max_cells=2)
        assert report.claimed == 2
        assert not queue.drained()

    def test_failed_cell_records_the_traceback(self, queue):
        enqueue_cells(queue, [Cell.make("Q-RAISE")])
        report = QueueWorker(queue, worker_id="w1").run()
        assert report.failed == 1
        (row,) = queue.rows()
        assert row.status == "failed"
        assert "deliberate failure" in row.error

    def test_nonpositive_ttl_rejected(self, queue):
        with pytest.raises(QueueError):
            QueueWorker(queue, ttl=0)


class TestCacheIntegration:
    def test_write_back_populates_the_local_cache(self, tmp_path, capsys):
        # The table a worker drains is the local result cache: a sweep
        # over the same cells is all hits and simulates nothing.
        from repro.cli import main

        cache = tmp_path / "cache"
        db = str(cache / CELLS_FILE)
        assert main(
            ["queue", "create", "--db", db, "TH1",
             "--params", '{"k": 3, "f": 1}']
        ) == 0
        assert main(["queue", "work", "--db", db]) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "-k", "3", "-f", "1", "--cache-dir", str(cache)]
        ) == 0
        summary = capsys.readouterr().err.splitlines()[-1]
        assert summary.startswith("engine: cells=5 hits=5 misses=0")
        assert "steps=0" in summary


class TestVersionGuard:
    def test_mismatched_fingerprint_refuses_the_claim(self, queue):
        cells = _cells()[:1]
        enqueue_cells(queue, cells)
        # Tamper the recorded fingerprint, as if the enqueuer ran
        # different experiment code.
        with queue._lock:
            queue._conn.execute(
                "UPDATE cells SET code_version = 'deadbeef' || code_version"
            )
        with pytest.raises(CodeVersionMismatch) as info:
            QueueWorker(queue, worker_id="w1").run()
        assert "--no-version-check" in str(info.value)
        # The cell was not claimed, let alone executed.
        (row,) = queue.rows()
        assert row.status == "open"
        assert row.attempts == 0

    def test_no_version_check_executes_anyway(self, queue):
        enqueue_cells(queue, _cells()[:1])
        with queue._lock:
            queue._conn.execute(
                "UPDATE cells SET code_version = 'deadbeef'"
            )
        report = QueueWorker(
            queue, worker_id="w1", check_version=False
        ).run()
        assert report.done == 1


class TestConcurrentWorkers:
    def test_two_workers_claim_disjoint_cells_each_once(self, tmp_path):
        shared = tmp_path / "shared.db"
        setup = SqliteQueue(shared)
        cells = expand_experiment("T1-sweep", {"n": 5, "f": 2, "k_max": 3})
        cells += _cells()
        enqueue_cells(setup, cells)
        setup.close()

        reports = {}

        def work(name):
            backend = SqliteQueue(shared)
            try:
                reports[name] = QueueWorker(backend, worker_id=name).run()
            finally:
                backend.close()

        threads = [
            threading.Thread(target=work, args=(f"w{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        audit = SqliteQueue(shared)
        try:
            rows = audit.rows()
        finally:
            audit.close()
        assert all(row.status == DONE for row in rows)
        # Exactly one execution per cell, split across the two owners.
        assert all(row.attempts == 1 for row in rows)
        assert sum(r.claimed for r in reports.values()) == len(cells)
        owners = {row.cell_id: row.owner for row in rows}
        for name, report in reports.items():
            for cell_id in report.outcomes:
                assert owners[cell_id] == name


class TestEngineBackend:
    """The queue runs the engine's cell path: same table, same steps,
    same failure rule."""

    def test_queue_backend_matches_serial_table(self, queue):
        # B1 simulates (TH1 is closed form), so the kernel steps can be
        # compared: the queue adds bookkeeping, not simulation.
        grid = {"update_counts": (4, 8)}
        serial = run_experiment("B1", **grid)
        _, local = run_experiment_grid("B1", grid)
        enqueue_cells(queue, expand_experiment("B1", grid))
        report = QueueWorker(queue, worker_id="w1").run()
        assert report.failed == 0 and report.lost == 0
        assert [o.status for o in report.outcomes.values()] == [OK] * 2
        assert report.steps == local.total_steps > 0
        assert export_queue(queue) == serial.render()

    def test_failed_rows_surface_in_the_report(self, queue):
        cells = [Cell.make("Q-RAISE")] + _cells()[:1]
        enqueue_cells(queue, cells)
        report = QueueWorker(queue, worker_id="w1").run()
        failed, ok = report.outcomes.values()
        assert failed.status == FAILED
        assert "deliberate failure" in failed.error
        assert ok.status == OK


class TestInterrupt:
    """Ctrl-C inside a cell is not a cell failure on any path."""

    @pytest.fixture(autouse=True)
    def _interrupting_experiment(self):
        from repro.experiments import _REGISTRY

        @experiment("Q-INTERRUPT")
        def _interrupt() -> ExperimentResult:
            raise KeyboardInterrupt

        yield
        _REGISTRY.pop("Q-INTERRUPT", None)

    def test_worker_propagates_and_leaves_the_row_claimed(
        self, queue, tmp_path
    ):
        from repro.cli import main

        enqueue_cells(queue, [Cell.make("Q-INTERRUPT")] + _cells()[:1])
        # The worker's clock runs a minute behind: its claim's heartbeat
        # has expired by the time `reset --stale` looks at it.
        worker = QueueWorker(
            queue, worker_id="w1", clock=lambda: time.time() - 60
        )
        with pytest.raises(KeyboardInterrupt):
            worker.run()
        interrupted, untouched = queue.rows()
        assert (interrupted.status, interrupted.owner) == (CLAIMED, "w1")
        assert interrupted.error is None
        assert untouched.status == OPEN  # the worker claimed nothing more
        assert main(
            ["queue", "reset", "--db", str(tmp_path / "q.db"), "--stale"]
        ) == 0
        assert queue.get(interrupted.cell_id).status == OPEN

    @pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
    def test_run_cells_propagates(self, jobs):
        with pytest.raises(KeyboardInterrupt):
            run_cells([Cell.make("Q-INTERRUPT")] + _cells()[:1], jobs=jobs)

    def test_interrupted_local_run_reopens_its_claims(self, tmp_path):
        from repro.experiments import _REGISTRY

        armed = tmp_path / "interrupt-once"
        armed.write_text("")

        @experiment("Q-INTERRUPT-ONCE")
        def _interrupt_once() -> ExperimentResult:
            if armed.exists():
                armed.unlink()
                raise KeyboardInterrupt
            return ExperimentResult("Q-INTERRUPT-ONCE", "t", ["ok"], [[1]])

        cells = [Cell.make("Q-INTERRUPT-ONCE")] + _cells()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_cells(cells, jobs=2, cache=tmp_path)
            table = SqliteQueue(tmp_path / CELLS_FILE)
            try:
                assert table.rows(status=CLAIMED) == []
            finally:
                table.close()
            # The rerun needs no stale-claim wait (the ttl is 30 s).
            started = time.monotonic()
            report = run_cells(cells, jobs=2, cache=tmp_path)
            assert time.monotonic() - started < 15
        finally:
            _REGISTRY.pop("Q-INTERRUPT-ONCE", None)
        assert not report.failed


class TestCLI:
    def test_create_work_status_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "cli.db")
        assert main(
            ["queue", "create", "--db", db, "TH1",
             "--params", '{"k": 3, "f": 1}']
        ) == 0
        out = capsys.readouterr().out
        assert "enqueued 5 new cell(s)" in out
        assert main(["queue", "work", "--db", db]) == 0
        assert main(["queue", "status", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "done=5" in out

    def test_create_without_ids_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            ["queue", "create", "--db", str(tmp_path / "x.db")]
        ) == 2

    def test_status_json_carries_per_cell_detail(self, tmp_path, capsys):
        import json

        from repro.cli import main

        db = str(tmp_path / "cli.db")
        main(["queue", "create", "--db", db, "TH1",
              "--params", '{"k": 3, "f": 1}'])
        capsys.readouterr()
        assert main(["queue", "status", "--db", db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["open"] == 5
        assert len(payload["cells"]) == 5
        assert {"cell_id", "status", "owner", "attempts"} <= set(
            payload["cells"][0]
        )

    def test_reset_needs_a_selector(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "cli.db")
        main(["queue", "create", "--db", db, "TH1",
              "--params", '{"k": 3, "f": 1}'])
        assert main(["queue", "reset", "--db", db]) == 2
        assert main(["queue", "reset", "--db", db, "--failed"]) == 0

    def test_seeds_flag_enqueues_replicate_grids(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "cli.db")
        assert main(
            ["queue", "create", "--db", db, "TH2", "--seeds", "1,2"]
        ) == 0
        backend = SqliteQueue(db)
        try:
            seeds = {row.seed for row in backend.rows()}
        finally:
            backend.close()
        assert seeds == {1, 2}
