"""``scripts/ab_pairs.py``: alternation and statistics, with a fake runner.

No benchmark runs here: a fake runner stands in for
``benchmarks/e2e/run.py`` and records the order it was called in, and
the parent's checkout is stubbed out.
"""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(sat, unloaded, correct=True):
    return {
        "correct": correct,
        "metrics": {
            "sat_ops_s": {"value": sat, "unit": "1/s"},
            "unloaded_ms": {"value": unloaded, "unit": "ms"},
        },
    }


#: per side, the (sat_ops_s, unloaded_ms) of pairs 0..4
VALUES = {
    "parent": [(100, 0.50), (104, 0.48), (98, 0.52), (102, 0.50), (101, 0.49)],
    "change": [(110, 0.45), (103, 0.48), (99, 0.47), (112, 0.40), (108, 0.51)],
}


class _FakeRunner:
    def __init__(self):
        self.calls = []

    def __call__(self, side, tree):
        pair = sum(1 for called, _ in self.calls if called == side)
        self.calls.append((side, tree))
        return _line(*VALUES[side][pair])


def test_pairs_alternate_parent_first_then_change_first(ab_pairs):
    runner = _FakeRunner()
    trees = {"parent": Path("p"), "change": Path("c")}
    runs = ab_pairs.run_pairs(5, runner, trees)
    assert [side for side, _ in runner.calls] == [
        "parent", "change", "change", "parent", "parent", "change",
        "change", "parent", "parent", "change",
    ]
    assert all(tree == trees[side] for side, tree in runner.calls)
    assert [run["parent"]["metrics"]["sat_ops_s"]["value"] for run in runs] == [
        sat for sat, _ in VALUES["parent"]
    ]


def test_summary_counts_wins_ties_and_quartiles_by_direction(ab_pairs):
    runs = ab_pairs.run_pairs(5, _FakeRunner(), {"parent": None, "change": None})
    better = {"sat_ops_s": "higher", "unloaded_ms": "lower"}
    summary = ab_pairs.summarize(runs, better)
    sat = summary["sat_ops_s"]
    assert sat["won"] == 4 and sat["ties"] == 0  # pair 1 lost: 103 < 104
    assert sat["parent_median"] == 101 and sat["change_median"] == 108
    assert sat["gain"] == pytest.approx(7 / 101)
    assert sat["parent_quartiles"] == statistics.quantiles(
        [100, 104, 98, 102, 101], n=4
    )
    unloaded = summary["unloaded_ms"]
    # lower is better: 0.45 < 0.50, tie at 0.48, 0.47 < 0.52, 0.40 < 0.50,
    # 0.51 > 0.49
    assert unloaded["won"] == 3 and unloaded["ties"] == 1
    assert unloaded["gain"] == pytest.approx((0.50 - 0.47) / 0.50)
    assert unloaded["better"] == "lower"


def test_main_prints_one_line_and_removes_its_scratch(
    ab_pairs, monkeypatch, tmp_path, capsys
):
    exported = []

    def fake_export(ref, into):
        into.mkdir()
        exported.append((ref, into))
        return "0" * 40

    monkeypatch.setattr(ab_pairs, "export", fake_export)
    code = ab_pairs.main(
        [
            "--parent", "HEAD~1", "--workload", "kv_sim_read",
            "--pairs", "5", "--seed", "11", "--scratch", str(tmp_path),
        ],
        runner=_FakeRunner(),
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["parent_commit"] == "0" * 40 and report["correct"]
    assert report["metrics"]["sat_ops_s"]["won"] == 4
    assert report["metrics"]["unloaded_ms"]["better"] == "lower"
    assert exported[0][0] == "HEAD~1"
    assert list(tmp_path.iterdir()) == []  # the parent's tree is gone


def test_a_failed_check_fails_the_run(ab_pairs, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(ab_pairs, "export", lambda ref, into: "c")

    def runner(side, tree):
        return _line(1.0, 1.0, correct=side == "parent")

    code = ab_pairs.main(
        [
            "--parent", "HEAD", "--workload", "kv_sim_read", "--pairs", "1",
            "--seed", "3", "--scratch", str(tmp_path),
        ],
        runner=runner,
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["correct"]
    assert report["metrics"]["sat_ops_s"]["ties"] == 1
