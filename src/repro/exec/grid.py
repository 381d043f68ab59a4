"""Cells: the unit of parallel experiment execution.

A :class:`Cell` is one independent experiment invocation — experiment id,
keyword arguments, and an optional scheduler seed.  Cells are immutable,
hashable and picklable; each one keys a row of the cell table, from
which a queue worker rebuilds it.

:func:`expand_experiment` shards one experiment call into cells: a
registered sweep experiment (one declaring ``axis=...`` — see
:func:`repro.experiments.experiment`) becomes one cell per axis value,
in axis order (also the merge order downstream), so ``T1-sweep`` fans
out across ``k`` and ``TH1`` across ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple


def _freeze(value: Any) -> Any:
    """Make a kwarg value hashable (lists/tuples -> tuples, dicts -> items)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(v) for v in value))
    if isinstance(value, range):
        return tuple(value)
    return value


@dataclass(frozen=True)
class Cell:
    """One experiment invocation: ``run(experiment_id, **kwargs)`` + seed."""

    experiment_id: str
    params: "Tuple[Tuple[str, Any], ...]" = ()
    seed: "Optional[int]" = None

    @classmethod
    def make(
        cls,
        experiment_id: str,
        params: "Optional[Mapping[str, Any]]" = None,
        seed: "Optional[int]" = None,
    ) -> "Cell":
        """Build a cell; a ``seed`` key inside ``params`` moves to the slot."""
        items = dict(params or {})
        if "seed" in items:
            seed = items.pop("seed") if seed is None else seed
        return cls(
            experiment_id,
            tuple(sorted((k, _freeze(v)) for k, v in items.items())),
            seed,
        )

    @property
    def kwargs(self) -> "Dict[str, Any]":
        """The keyword arguments to call the experiment with (no seed)."""
        return dict(self.params)

    def describe(self) -> str:
        parts = [f"{k}={v!r}" for k, v in self.params]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        suffix = f" [{', '.join(parts)}]" if parts else ""
        return f"{self.experiment_id}{suffix}"


def expand_experiment(
    experiment_id: str,
    kwargs: "Optional[Mapping[str, Any]]" = None,
    seed: "Optional[int]" = None,
) -> "List[Cell]":
    """Shard one experiment call into independent cells.

    Experiments registered with a sweep ``axis`` expand into one cell per
    axis value (each cell pins the axis kwarg to a one-element list);
    everything else stays a single cell.  Merging the per-cell results in
    this order with :func:`repro.exec.engine.merge_results` reproduces the
    unsharded result row-for-row.
    """
    from repro.experiments import get_experiment

    fn = get_experiment(experiment_id)
    kwargs = dict(kwargs or {})
    if "seed" in kwargs and seed is None:
        seed = kwargs.pop("seed")
    axis = getattr(fn, "grid_axis", None)
    if axis is None:
        return [Cell.make(experiment_id, kwargs, seed)]
    if axis in kwargs:
        values = list(kwargs.pop(axis))
    else:
        values = list(fn.grid_axis_default(dict(kwargs)))
    cells = []
    for value in values:
        params = dict(kwargs)
        params[axis] = [value]
        cells.append(Cell.make(experiment_id, params, seed))
    return cells
