"""The result-cache key of an experiment cell.

Results live in the cell table (:class:`~repro.exec.queue.SqliteQueue`,
``<--cache-dir>/cells.sqlite`` for local runs), one row per cell keyed
by :func:`cell_key`: a content hash over everything that determines the
result:

* experiment id,
* normalized keyword arguments (sorted, JSON-canonical),
* the replicate seed,
* a *code version* — a hash of the experiment function's source, every
  ``*.py`` source of the ``repro`` package and the package version, so
  editing an experiment *or any library code it calls* silently
  invalidates old entries instead of serving stale tables.  The
  function's own source stays in the hash because experiments loaded
  with ``--import-module`` live outside the package.

Because the code version is in the key, rows of an older checkout stay
in the table but are never served, and the ``.repro_cache/*/*.json``
files of the former one-file-per-cell cache are ignored.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
from pathlib import Path
from typing import Any, Dict, Optional

from repro.exec.grid import Cell

#: bump to invalidate every existing cache key on format changes.
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
