"""Cell and expand_experiment semantics."""

import pickle

import pytest

from repro.exec.grid import Cell, expand_experiment


class TestCell:
    def test_make_sorts_params_and_freezes(self):
        cell = Cell.make("T1", {"n": 5, "k": 2, "vals": [1, 2]})
        assert cell.params == (("k", 2), ("n", 5), ("vals", (1, 2)))

    def test_seed_key_moves_to_slot(self):
        cell = Cell.make("T1", {"k": 2, "seed": 7})
        assert cell.seed == 7
        assert "seed" not in cell.kwargs

    def test_hashable_and_picklable(self):
        cell = Cell.make("T1", {"k": 2, "vals": [1, 2]}, seed=1)
        assert hash(cell) == hash(pickle.loads(pickle.dumps(cell)))
        assert pickle.loads(pickle.dumps(cell)) == cell

    def test_describe(self):
        assert Cell.make("T1", {}, seed=3).describe() == "T1 [seed=3]"
        assert Cell.make("T1").describe() == "T1"


class TestExpandExperiment:
    def test_axis_experiment_shards_per_value(self):
        cells = expand_experiment("T1-sweep", {"n": 5, "f": 2, "k_max": 3})
        assert len(cells) == 3
        assert [c.kwargs["k_values"] for c in cells] == [(1,), (2,), (3,)]

    def test_pinned_axis_respected(self):
        cells = expand_experiment("TH2", {"k_values": (2, 4)})
        assert [c.kwargs["k_values"] for c in cells] == [(2,), (4,)]

    def test_non_axis_experiment_single_cell(self):
        cells = expand_experiment("T1", {"k": 2, "n": 5, "f": 2}, seed=9)
        assert len(cells) == 1
        assert cells[0].seed == 9

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError):
            expand_experiment("NOPE", {})

    def test_function_name_alias(self):
        assert expand_experiment("table1_sweep", {"k_max": 2})[0].experiment_id in (
            "T1-sweep",
            "table1_sweep",
        )
