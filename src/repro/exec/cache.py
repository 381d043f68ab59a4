"""Persistent result cache for experiment cells.

Results live as one JSON file per cell under ``.repro_cache/`` (or any
root you pass), sharded by the first two hex digits of the key.  The key
is a content hash over everything that determines the result:

* experiment id,
* normalized keyword arguments (sorted, JSON-canonical),
* the replicate seed,
* a *code version* — a hash of the experiment function's source, every
  ``*.py`` source of the ``repro`` package and the package version, so
  editing an experiment *or any library code it calls* silently
  invalidates old entries instead of serving stale tables.  The
  function's own source stays in the hash because experiments loaded
  with ``--import-module`` live outside the package.

The cache is process-safe for our access pattern (the grid engine reads
and writes only from the parent process; writes go through a temp file +
``os.replace`` so readers never see a torn entry) and keeps hit/miss/
store counters for the CLI summary.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.exec.grid import Cell

#: bump to invalidate every existing cache entry on format changes.
CACHE_FORMAT = 1

_CODE_VERSIONS: "Dict[str, str]" = {}


@functools.lru_cache(maxsize=None)
def package_source_digest() -> str:
    """sha256 over the ``repro`` package's ``*.py`` files (once per process).

    Files are fed in sorted relative-path order, each as its path and its
    bytes, so the digest names the checkout's library code exactly.
    """
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for relative in sorted(
        path.relative_to(root).as_posix() for path in root.rglob("*.py")
    ):
        digest.update(relative.encode("utf-8") + b"\0")
        digest.update((root / relative).read_bytes() + b"\0")
    return digest.hexdigest()


def experiment_code_version(experiment_id: str) -> str:
    """Hash of the experiment's source, the package sources and the
    package version (memoized)."""
    cached = _CODE_VERSIONS.get(experiment_id)
    if cached is not None:
        return cached
    import repro
    from repro.experiments import get_experiment

    fn = get_experiment(experiment_id)
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):  # dynamically defined experiment
        source = repr(fn)
    digest = hashlib.sha256(
        f"{repro.__version__}|{CACHE_FORMAT}|{package_source_digest()}"
        f"|{source}".encode("utf-8")
    ).hexdigest()
    _CODE_VERSIONS[experiment_id] = digest
    return digest


def _canonical_param(value: Any) -> Any:
    """JSON fallback for non-JSON param values in cell identities.

    Values that know their cache identity (``cache_payload()``, e.g.
    :class:`~repro.net.config.TransportConfig`) and frozen dataclasses
    (fault plans, emulation specs) are expanded structurally, tagged with
    their type name — so an InProc cell and a Lossy cell can never hash
    to the same key, and a changed fault parameter always changes the
    key.  ``str()`` remains the last resort for plain opaque values.
    """
    payload = getattr(value, "cache_payload", None)
    if callable(payload):
        return {f"__{type(value).__name__}__": payload()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f"__{type(value).__name__}__": dataclasses.asdict(value)}
    return str(value)


def cell_key(cell: Cell, code_version: "Optional[str]" = None) -> str:
    """The cache key of a cell: sha256 over its normalized identity."""
    if code_version is None:
        code_version = experiment_code_version(cell.experiment_id)
    identity = {
        "experiment": cell.experiment_id,
        "params": {k: v for k, v in cell.params},
        "seed": cell.seed,
        "code": code_version,
    }
    blob = json.dumps(identity, sort_keys=True, default=_canonical_param)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """JSON-file result cache keyed by :func:`cell_key`."""

    def __init__(self, root: "Union[os.PathLike, str]" = ".repro_cache"):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, cell: Cell) -> "Optional[Dict[str, Any]]":
        """The archived payload for ``cell``, or ``None`` (counts hit/miss)."""
        path = self.path(cell_key(cell))
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def store(self, cell: Cell, payload: "Dict[str, Any]") -> Path:
        """Atomically persist ``payload`` for ``cell``."""
        path = self.path(cell_key(cell))
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        os.replace(tmp, path)
        self.stores += 1
        return path

    def clear(self) -> int:
        """Delete every entry under the root; returns the count removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in self.root.glob("*/*.json"):
            entry.unlink()
            removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
