"""Crash survival end-to-end: SIGKILL a worker, reset, finish elsewhere.

The scenario the queue exists for: worker 1 claims a cell and dies hard
(no write-back, no cleanup — its heartbeat just stops).  After the ttl,
``repro queue reset --stale`` reopens exactly that cell, and a second
worker completes the sweep.  No cell executes twice, and the rows worker
1 *did* finish keep its name on them.

The slow experiment lives in a module written into tmp_path (workers are
separate processes; a test-local @experiment registration would not
exist in them).  Its cells append to an execution log and block until a
release file appears, so the test controls exactly when worker 1 dies.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exec.queue import CLAIMED, DONE, OPEN, SqliteQueue

EXPERIMENT_MODULE = '''\
"""Queue crash-test experiment: logs executions, blocks on a file."""

import os
import time

from repro.experiments import ExperimentResult, experiment

RUN_DIR = os.environ["QUEUE_CRASH_DIR"]


@experiment("X-SLOW", axis="i_values", axis_default=lambda kwargs: (0, 1, 2))
def slow_sweep(i_values=(0, 1, 2)):
    (i,) = i_values
    with open(os.path.join(RUN_DIR, "executions.log"), "a") as log:
        log.write(f"{i}-{os.getpid()}\\n")
    open(os.path.join(RUN_DIR, f"started-{i}"), "w").close()
    while not os.path.exists(os.path.join(RUN_DIR, "release")):
        time.sleep(0.02)
    return ExperimentResult("X-SLOW", "slow", ["i"], [[i]])
'''


def _repro(args, run_dir, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(run_dir), "src", env.get("PYTHONPATH", "")]
    )
    env["QUEUE_CRASH_DIR"] = str(run_dir)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        **kwargs,
    )


def _wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {message}")


def test_sigkilled_worker_cell_is_reset_and_finished_once(tmp_path):
    (tmp_path / "queue_crash_experiment.py").write_text(EXPERIMENT_MODULE)
    db = str(tmp_path / "crash.db")
    common = ["--db", db, "--import-module", "queue_crash_experiment"]

    create = _repro(["queue", "create", *common, "X-SLOW"], tmp_path)
    out, _ = create.communicate(timeout=60)
    assert create.returncode == 0, out
    assert "enqueued 3 new cell(s)" in out

    # Worker 1 claims the first cell (workers claim one at a time) and
    # blocks inside it; SIGKILL it mid-execution.
    worker1 = _repro(
        ["queue", "work", *common, "--worker-id", "w1",
         "--ttl", "0.5"],
        tmp_path,
    )
    try:
        _wait_for(
            lambda: (tmp_path / "started-0").exists(),
            message="worker 1 to start cell 0",
        )
        os.kill(worker1.pid, signal.SIGKILL)
        worker1.wait(timeout=30)
    finally:
        if worker1.poll() is None:  # pragma: no cover — kill failed
            worker1.kill()
            worker1.wait()

    backend = SqliteQueue(db)
    try:
        stuck = [row for row in backend.rows() if row.status == CLAIMED]
        assert len(stuck) == 1
        assert stuck[0].owner == "w1"
        dead_cell = stuck[0].cell_id
    finally:
        backend.close()

    # The heartbeat stopped with the process; after the ttl the claim is
    # stale and reset reopens exactly that cell.
    time.sleep(0.6)
    reset = _repro(
        ["queue", "reset", "--db", db, "--stale", "--ttl", "0.5"], tmp_path
    )
    out, _ = reset.communicate(timeout=60)
    assert reset.returncode == 0, out
    assert "reopened 1 cell(s)" in out
    assert dead_cell in out

    backend = SqliteQueue(db)
    try:
        assert backend.get(dead_cell).status == OPEN
    finally:
        backend.close()

    # Unblock executions and let a second worker drain the queue.
    (tmp_path / "release").write_text("go")
    worker2 = _repro(
        ["queue", "work", *common, "--worker-id", "w2",
         "--ttl", "5"],
        tmp_path,
    )
    out, _ = worker2.communicate(timeout=120)
    assert worker2.returncode == 0, out

    backend = SqliteQueue(db)
    try:
        rows = backend.rows()
        assert [row.status for row in rows] == [DONE] * 3
        assert all(row.owner == "w2" for row in rows)
        by_id = {row.cell_id: row for row in rows}
        # The SIGKILLed cell carries both claims; the others only w2's.
        assert by_id[dead_cell].attempts == 2
        assert all(
            row.attempts == 1
            for row in rows
            if row.cell_id != dead_cell
        )
    finally:
        backend.close()

    # The execution log is ground truth: the killed attempt logged cell
    # 0 once before dying (it never finished), w2 logged every cell
    # exactly once — nothing ran twice *to completion*, and cells 1 and
    # 2 never ran twice at all.
    log = (tmp_path / "executions.log").read_text().splitlines()
    cells_logged = [line.split("-")[0] for line in log]
    assert sorted(cells_logged) == ["0", "0", "1", "2"]
    pids = {line.split("-")[1] for line in log if line.startswith("0-")}
    assert len(pids) == 2  # the dead attempt and w2's retry
