"""The experiment table over one SQLite file.

One database file on a shared path (NFS mount, shared volume, or just a
local directory for single-box multi-process runs) is the whole
deployment story: every worker opens the same file, and SQLite's
file-level locking plus single-statement ``UPDATE ... WHERE status=?``
transitions give us the atomic claims the protocol demands.  The same
table under ``<--cache-dir>/cells.sqlite`` is the local result cache of
``repro experiment|sweep|ablate``.

Concurrency notes:

* The connection is opened in autocommit mode; every single-statement
  mutation is atomic on its own, and the multi-statement operations
  (:meth:`reset`) take ``BEGIN IMMEDIATE`` so the select-then-update
  pair holds the write lock throughout.
* ``BUSY_TIMEOUT`` makes concurrent writers queue instead of erroring.
* WAL journaling is attempted (readers don't block the writer on local
  disks) but failure to switch is tolerated — some network filesystems
  refuse WAL, and rollback journaling is still correct there.
* One connection may be shared across threads (the worker's heartbeat
  thread renews through the same handle): an internal lock serializes
  statements.  No connection crosses a ``fork``: a forked worker opens
  its own.
* Reads ask for the rows they need: :meth:`lookup` and the
  ``cell_ids`` filter of :meth:`next_open` pass a batch of ids as one
  JSON array; only :meth:`rows` (status, export) reads every row.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import CellClaimLost, QueueError
from repro.exec.queue.backend import (
    CLAIMED,
    DONE,
    FAILED,
    OPEN,
    STATUSES,
    QueueCell,
    QueueStatus,
)

#: bump on schema changes; a mismatched file refuses to open.
SCHEMA_VERSION = 1

#: seconds a statement waits for another writer's lock
BUSY_TIMEOUT = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS queue_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS cells (
    cell_id       TEXT PRIMARY KEY,
    cell_index    INTEGER NOT NULL,
    experiment_id TEXT NOT NULL,
    params_json   TEXT NOT NULL,
    seed          INTEGER,
    code_version  TEXT NOT NULL,
    status        TEXT NOT NULL DEFAULT 'open',
    owner         TEXT,
    heartbeat     REAL,
    claimed_at    REAL,
    finished_at   REAL,
    attempts      INTEGER NOT NULL DEFAULT 0,
    steps         INTEGER NOT NULL DEFAULT 0,
    elapsed       REAL NOT NULL DEFAULT 0.0,
    result_json   TEXT,
    error         TEXT
);
CREATE INDEX IF NOT EXISTS cells_status_index
    ON cells (status, cell_index);
"""

_COLUMNS = (
    "cell_id, cell_index, experiment_id, params_json, seed, code_version,"
    " status, owner, heartbeat, claimed_at, finished_at, attempts, steps,"
    " elapsed, result_json, error"
)


def _row_to_cell(row: "Tuple[Any, ...]") -> QueueCell:
    # _COLUMNS lists the QueueCell fields in declaration order.
    return QueueCell(*row)


#: restricts a query to a batch of ids passed as one JSON array.
_IN_IDS = "cell_id IN (SELECT value FROM json_each(?))"


class SqliteQueue:
    """The shared experiment table over one SQLite file.

    :meth:`try_claim` and :meth:`write_back` are atomic compare-and-swap
    transitions (one conditional ``UPDATE``), because they are the only
    thing standing between two workers and a double-executed cell.
    Reads may be stale; CAS failures are the truth.
    """

    def __init__(self, path: "Union[str, os.PathLike]"):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # check_same_thread=False + _lock: the heartbeat thread shares
        # this handle (each statement is serialized below).
        self._conn = sqlite3.connect(
            str(self.path),
            timeout=BUSY_TIMEOUT,
            check_same_thread=False,
            isolation_level=None,  # autocommit; explicit BEGIN where needed
        )
        self._lock = threading.Lock()
        with self._lock:
            self._conn.execute(
                f"PRAGMA busy_timeout = {int(BUSY_TIMEOUT * 1000)}"
            )
            try:
                self._conn.execute("PRAGMA journal_mode = WAL")
            except sqlite3.OperationalError:  # pragma: no cover — odd FS
                pass
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO queue_meta (key, value)"
                " VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            cursor = self._conn.execute(
                "SELECT value FROM queue_meta WHERE key = 'schema_version'"
            )
            found = int(cursor.fetchone()[0])
        if found != SCHEMA_VERSION:
            raise QueueError(
                f"queue file {self.path} has schema version {found};"
                f" this build speaks {SCHEMA_VERSION}"
            )

    # -- primitives -----------------------------------------------------

    def enqueue(self, rows: "Sequence[QueueCell]") -> int:
        """Insert rows, ignoring cell_ids already present; count added.

        Each row's ``index`` is its position in the batch; it is stored
        past the table's current tail, so a table fed several grids
        exports each one's cells in its own enqueue order.
        """
        added = 0
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                (base,) = self._conn.execute(
                    "SELECT COALESCE(MAX(cell_index) + 1, 0) FROM cells"
                ).fetchone()
                for row in rows:
                    cursor = self._conn.execute(
                        "INSERT OR IGNORE INTO cells"
                        " (cell_id, cell_index, experiment_id, params_json,"
                        "  seed, code_version, status)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?)",
                        (
                            row.cell_id,
                            base + row.index,
                            row.experiment_id,
                            row.params_json,
                            row.seed,
                            row.code_version,
                            OPEN,
                        ),
                    )
                    added += cursor.rowcount
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return added

    def next_open(
        self, limit: int = 1, cell_ids: "Optional[Sequence[str]]" = None
    ) -> "List[QueueCell]":
        """Up to ``limit`` OPEN rows in index order (claim candidates),
        only among ``cell_ids`` when given."""
        query = f"SELECT {_COLUMNS} FROM cells WHERE status = ?"
        args: "Tuple[Any, ...]" = (OPEN,)
        if cell_ids is not None:
            query += f" AND {_IN_IDS}"
            args += (json.dumps(list(cell_ids)),)
        with self._lock:
            cursor = self._conn.execute(
                query + " ORDER BY cell_index LIMIT ?", args + (limit,)
            )
            return [_row_to_cell(row) for row in cursor.fetchall()]

    def try_claim(self, cell_id: str, owner: str, now: float) -> bool:
        """CAS ``open -> claimed`` for ``owner``; False if lost the race."""
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE cells SET status = ?, owner = ?, heartbeat = ?,"
                " claimed_at = ?, attempts = attempts + 1, error = NULL"
                " WHERE cell_id = ? AND status = ?",
                (CLAIMED, owner, now, now, cell_id, OPEN),
            )
            return cursor.rowcount == 1

    def renew_heartbeat(self, cell_id: str, owner: str, now: float) -> bool:
        """Refresh the claim heartbeat; False if the claim is gone."""
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE cells SET heartbeat = ?"
                " WHERE cell_id = ? AND status = ? AND owner = ?",
                (now, cell_id, CLAIMED, owner),
            )
            return cursor.rowcount == 1

    def write_back(
        self,
        cell_id: str,
        owner: str,
        status: str,
        now: float,
        result_json: "Optional[str]" = None,
        error: "Optional[str]" = None,
        steps: int = 0,
        elapsed: float = 0.0,
    ) -> None:
        """CAS ``claimed -> done|failed``; raises
        :class:`~repro.errors.CellClaimLost` if the claim was stolen."""
        if status not in (DONE, FAILED):
            raise QueueError(
                f"write_back targets 'done' or 'failed', not {status!r}"
            )
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE cells SET status = ?, finished_at = ?, steps = ?,"
                " elapsed = ?, result_json = ?, error = ?"
                " WHERE cell_id = ? AND status = ? AND owner = ?",
                (
                    status,
                    now,
                    steps,
                    elapsed,
                    result_json,
                    error,
                    cell_id,
                    CLAIMED,
                    owner,
                ),
            )
            if cursor.rowcount == 1:
                return
        row = self.get(cell_id)
        state = (
            f"now {row.status}"
            + (f" (owner {row.owner})" if row.owner else "")
            if row is not None
            else "no longer in the queue"
        )
        raise CellClaimLost(
            f"claim on cell {cell_id[:12]}… was lost before write-back:"
            f" {state}; the result was discarded"
        )

    def reset(
        self,
        stale_before: "Optional[float]" = None,
        failed: bool = False,
        cell_ids: "Optional[Sequence[str]]" = None,
    ) -> "List[str]":
        """Reopen rows; returns the cell_ids transitioned back to OPEN.

        ``stale_before`` reopens CLAIMED rows whose heartbeat is older
        than the cutoff (dead workers); ``failed`` reopens FAILED rows;
        ``cell_ids`` reopens those exact rows whatever their state
        (except OPEN, which is a no-op).
        """
        reopened: "List[str]" = []
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                if stale_before is not None:
                    reopened += self._reset_where(
                        "status = ? AND heartbeat < ?",
                        (CLAIMED, stale_before),
                    )
                if failed:
                    reopened += self._reset_where("status = ?", (FAILED,))
                for cell_id in cell_ids or ():
                    reopened += self._reset_where(
                        "cell_id = ? AND status != ?", (cell_id, OPEN)
                    )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return reopened

    def _reset_where(
        self, predicate: str, args: "Tuple[Any, ...]"
    ) -> "List[str]":
        """Reopen rows matching ``predicate`` (caller holds the lock and
        an IMMEDIATE transaction, so select+update cannot race)."""
        cursor = self._conn.execute(
            f"SELECT cell_id FROM cells WHERE {predicate}"
            " ORDER BY cell_index",
            args,
        )
        ids = [row[0] for row in cursor.fetchall()]
        for cell_id in ids:
            self._conn.execute(
                "UPDATE cells SET status = ?, owner = NULL,"
                " heartbeat = NULL, claimed_at = NULL, finished_at = NULL,"
                " steps = 0, elapsed = 0.0, result_json = NULL,"
                " error = NULL"
                " WHERE cell_id = ?",
                (OPEN, cell_id),
            )
        return ids

    # -- reads ----------------------------------------------------------

    def rows(self, status: "Optional[str]" = None) -> "List[QueueCell]":
        """Every row (optionally filtered), in index order."""
        query = f"SELECT {_COLUMNS} FROM cells"
        args: "Tuple[Any, ...]" = ()
        if status is not None:
            query += " WHERE status = ?"
            args = (status,)
        query += " ORDER BY cell_index"
        with self._lock:
            cursor = self._conn.execute(query, args)
            return [_row_to_cell(row) for row in cursor.fetchall()]

    def lookup(self, cell_ids: "Sequence[str]") -> "Dict[str, QueueCell]":
        """The rows with these ids, by id (absent ids are left out)."""
        with self._lock:
            cursor = self._conn.execute(
                f"SELECT {_COLUMNS} FROM cells WHERE {_IN_IDS}",
                (json.dumps(list(cell_ids)),),
            )
            return {row[0]: _row_to_cell(row) for row in cursor.fetchall()}

    def get(self, cell_id: str) -> "Optional[QueueCell]":
        return self.lookup([cell_id]).get(cell_id)

    def drained(self) -> bool:
        """True when no row is OPEN or CLAIMED (the grid is finished)."""
        return self.status(now=0.0, ttl=0.0).remaining == 0

    def status(self, now: float, ttl: float) -> QueueStatus:
        """Aggregate counts; ``ttl`` defines heartbeat staleness."""
        with self._lock:
            counts = dict(
                self._conn.execute(
                    "SELECT status, COUNT(*) FROM cells GROUP BY status"
                ).fetchall()
            )
            stale = self._conn.execute(
                "SELECT COUNT(*) FROM cells"
                " WHERE status = ? AND heartbeat < ?",
                (CLAIMED, now - ttl),
            ).fetchone()[0]
            experiments = [
                row[0]
                for row in self._conn.execute(
                    "SELECT DISTINCT experiment_id FROM cells"
                    " ORDER BY experiment_id"
                ).fetchall()
            ]
        return QueueStatus(
            counts={status: counts.get(status, 0) for status in STATUSES},
            stale=stale,
            experiments=experiments,
        )

    def close(self) -> None:
        """Release the database handle."""
        with self._lock:
            self._conn.close()
