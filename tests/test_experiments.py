"""Tests for the experiment registry."""

import pytest

from repro.core import bounds
from repro.experiments import (
    ExperimentResult,
    list_experiments,
    run_experiment,
)

ALL_IDS = ["ABL", "B1", "F1", "L1", "MIX", "MULTI", "OPS", "OQ", "SEP",
           "SIM", "T1", "T1-sweep", "TH1", "TH2", "TH5", "TH6", "TH7", "TH8"]


class TestRegistry:
    def test_all_ids_registered(self):
        assert list_experiments() == ALL_IDS

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_experiment("T99")

    def test_render_includes_title_and_rows(self):
        result = run_experiment("TH2", k_values=(1, 2))
        text = result.render()
        assert "Theorem 2" in text
        assert text.count("\n") >= 3

    def test_to_dict_is_json_serializable(self):
        import json

        result = run_experiment("TH2", k_values=(1, 2))
        payload = json.dumps(result.to_dict())
        decoded = json.loads(payload)
        assert decoded["experiment_id"] == "TH2"
        assert decoded["rows"]

    def test_to_dict_stringifies_odd_cells(self):
        result = run_experiment("TH6", k=2, f=1)
        import json

        json.dumps(result.to_dict())  # ServerId cells become strings


class TestSmallInstances:
    """Every experiment runs end-to-end at reduced size."""

    def test_t1(self):
        result = run_experiment("T1", k=2, n=5, f=2)
        assert [row[0] for row in result.rows] == [
            "max-register",
            "cas",
            "register",
        ]
        for row in result.rows:
            assert row[1] <= row[2] == row[3]

    def test_t1_sweep(self):
        result = run_experiment("T1-sweep", n=5, f=2, k_max=3)
        assert len(result.rows) == 3

    def test_f1(self):
        result = run_experiment("F1", k=2, n=5, f=2)
        assert sum(row[1] for row in result.rows) == 10

    def test_l1(self):
        result = run_experiment("L1", k=2, n=5, f=2)
        assert [row[1] for row in result.rows] == [2, 4]

    def test_th1(self):
        result = run_experiment("TH1", k=2, f=1)
        gaps = [row[4] for row in result.rows]
        assert all(g >= 0 for g in gaps)

    def test_th2(self):
        result = run_experiment("TH2", k_values=(1, 3))
        assert all(row[1] == row[2] for row in result.rows)

    def test_th5(self):
        result = run_experiment("TH5", f_values=(1,))
        assert result.rows[0][3] == "WS-Safety VIOLATED"

    def test_th6(self):
        result = run_experiment("TH6", k=2, f=1)
        non_f = [row for row in result.rows if row[2] == "no"]
        assert all(row[3] >= 2 for row in non_f)

    def test_th7(self):
        result = run_experiment("TH7", k=2, f=1, capacities=(1, 4))
        assert all(row[2] >= row[1] for row in result.rows)

    def test_th8(self):
        result = run_experiment("TH8", k=2, n=5, f=2)
        assert all(row[1] == 1 for row in result.rows)

    def test_b1(self):
        result = run_experiment("B1", update_counts=(1, 2))
        assert result.rows[0][1] <= 2

    def test_sep(self):
        result = run_experiment("SEP", k=3, f=1)
        register_cov = [row[1] for row in result.rows]
        maxreg_cov = [row[2] for row in result.rows]
        assert register_cov == [1, 2, 3]
        assert all(c <= 3 for c in maxreg_cov)  # saturates at n = 3

    def test_oq(self):
        result = run_experiment("OQ", k=2, n=5, f=2, samples=3)
        (row,) = result.rows
        assert row == [3, 0, 0]

    def test_abl(self):
        result = run_experiment("ABL")
        outcomes = {row[0]: row[1] for row in result.rows}
        assert outcomes["Algorithm 2 (intact)"] == "SAFE"
        assert outcomes["no cover avoidance"] == "WS-Safety VIOLATED"


def _column(result, index):
    return [row[index] for row in result.rows]


class TestPaperClaims:
    """Each table's qualitative claims, asserted on the registry's rows
    at the paper parameters (the defaults, except where noted).

    Claims that no table carries live beside the library piece they
    exercise: the kf+f+1 floor and Theorem 7's accounting in
    ``tests/core/test_bounds.py``, the 27-point layout sweep in
    ``tests/core/test_layout.py``, Lemma 1 at n=2f+1 and the failing
    claim (a) on max-registers in ``tests/core/test_lemma1.py``, and
    Appendix B's contention and collect counts in
    ``tests/core/test_cas_maxreg.py`` / ``test_collect_maxreg.py``.
    """

    def test_t1(self):
        k, n, f = 4, 7, 2
        rows = {row[0]: row[1:] for row in run_experiment("T1").rows}
        assert rows["max-register"][2] == rows["cas"][2] == 2 * f + 1
        lower, upper, measured = rows["register"]
        assert measured == upper == bounds.register_upper_bound(k, n, f)
        assert measured >= lower == bounds.register_lower_bound(k, n, f)
        assert measured >= k * f  # separated by a factor ~k

    def test_t1_sweep(self):
        result = run_experiment("T1-sweep")
        assert _column(result, 0) == list(range(1, 9))
        assert set(_column(result, 1)) == {5}  # RMW types stay flat
        measured = _column(result, 3)
        assert all(b > a for a, b in zip(measured, measured[1:]))
        assert all(row[3] >= row[2] for row in result.rows)

    def test_f1(self):
        result = run_experiment("F1")
        assert result.notes.splitlines()[0] == (
            "layout k=5 n=6 f=2 z=1 sets=[5, 5, 5, 5, 5] total=25"
        )
        loads = _column(result, 1)
        assert len(loads) == 6 and sum(loads) == 25
        assert min(loads) >= 4 and max(loads) <= 5  # balanced

    def test_l1(self):
        k, f = 5, 2
        result = run_experiment("L1")  # asserts Lemma 1 (a)-(e) itself
        assert _column(result, 1) == _column(result, 2) == [
            i * f for i in range(1, k + 1)
        ]
        assert set(_column(result, 3)) == {0}  # nothing covered on F
        assert all(fresh > 2 * f for fresh in _column(result, 4))
        assert set(_column(result, 5)) == {1}

    def test_th1(self):
        k, f = 4, 2
        result = run_experiment("TH1")
        n, lower, upper, measured = (_column(result, i) for i in range(4))
        assert n[0] == 2 * f + 1 and n[-1] == bounds.saturation_n(k, f) + 2
        assert measured == upper  # Theorem 3's layout meets the formula
        assert all(a >= b for a, b in zip(lower, lower[1:]))
        assert all(a >= b for a, b in zip(upper, upper[1:]))
        assert lower[0] == upper[0] == k * (2 * f + 1)
        saturated = n.index(bounds.saturation_n(k, f))
        assert lower[saturated] == upper[saturated] == k * f + f + 1
        assert all(value >= k * f + f + 1 for value in lower)

    def test_th2(self):
        result = run_experiment("TH2")
        assert _column(result, 0) == [1, 2, 4, 8, 16]
        for k, lower, registers in result.rows:
            assert registers == lower == k

    def test_th5(self):
        result = run_experiment("TH5")
        assert _column(result, 0) == [1, 2, 3]
        assert set(_column(result, 3)) == {"WS-Safety VIOLATED"}

    def test_th6(self):
        k = 3
        result = run_experiment("TH6")
        assert len(result.rows) == 3 * 3  # every F of size f+1, n=3
        for _F, _server, in_F, covered in result.rows:
            if in_F == "no":
                assert covered >= k
            else:
                assert covered == 0

    def test_th7(self):
        f = 2
        result = run_experiment("TH7")
        floors, achieved = _column(result, 1), _column(result, 2)
        assert all(a >= b for a, b in zip(floors, floors[1:]))
        assert all(a >= b for a, b in zip(achieved, achieved[1:]))
        for m, floor, n, _total, max_load, slack in result.rows:
            assert n >= floor >= 2 * f
            assert max_load <= m
            assert slack >= 0

    def test_th8(self):
        f = 2
        result = run_experiment("TH8")
        assert set(_column(result, 1)) == {1}  # point contention
        covered = _column(result, 2)
        assert len(covered) == 6
        assert all(b - a == f for a, b in zip([0] + covered, covered))

    def test_b1(self):
        result = run_experiment("B1")
        assert _column(result, 0) == [1, 2, 4, 8, 16, 32]
        for updates, iterations in result.rows:
            assert updates <= iterations <= 2 * updates

    def test_sep(self):
        k, n, f = 6, 5, 2
        result = run_experiment("SEP")
        registers, maxregs = _column(result, 1), _column(result, 2)
        assert registers == [f * i for i in range(1, k + 1)]
        assert all(covered <= n for covered in maxregs)
        assert maxregs[-1] <= n < k * f  # saturates instead of growing
        assert result.notes == (
            f"register deployment owns {k * (2 * f + 1)} objects;"
            f" max-register deployment owns {n}"
        )

    @pytest.mark.parametrize("k,n,f", [(2, 5, 2), (3, 7, 2)])
    def test_oq(self, k, n, f):
        result = run_experiment("OQ", k=k, n=n, f=f, samples=30)
        assert result.rows == [[30, 0, 0]]

    def test_abl(self):
        outcomes = {row[0]: row[1] for row in run_experiment("ABL").rows}
        assert outcomes == {
            "Algorithm 2 (intact)": "SAFE",
            "no cover avoidance": "WS-Safety VIOLATED",
            "write quorum |R|-f-1": "WS-Safety VIOLATED",
        }

    def test_ops(self):
        k, n, f = 2, 5, 2
        rows = {row[0]: row[1:] for row in run_experiment("OPS").rows}
        abd = rows["max-register (ABD)"]
        cas = rows["cas (ABD over Alg. 1)"]
        register = rows["register (Alg. 2)"]
        assert abd[0] == cas[0] == n  # one RMW object per server
        assert register[0] >= k * f + f + 1
        assert cas[1] >= abd[1]  # Algorithm 1's loop costs round trips
        assert register[1] >= abd[1]  # collects read every register

    def test_mix(self):
        rows = {(row[0], row[1]): row[2:] for row in run_experiment("MIX").rows}
        for mix in ("write-heavy", "read-heavy"):
            assert (
                rows[("register (Alg. 2)", mix)][0]
                > rows[("max-register (ABD)", mix)][0]
            )
        assert (
            rows[("cas (ABD over Alg. 1)", "write-heavy")][1]
            >= rows[("max-register (ABD)", "write-heavy")][1]
        )

    def test_multi(self):
        k, n, f = 2, 5, 2
        per_register = bounds.register_upper_bound(k, n, f)
        result = run_experiment("MULTI")
        assert _column(result, 0) == [1, 2, 4, 8]
        for m, total, max_load, _steps in result.rows:
            assert total == m * per_register
            assert max_load == m * per_register // n  # the fair share
            # Theorem 7: n servers of this capacity suffice for m*k writers.
            assert bounds.servers_needed_bounded_storage(
                m * k, f, max_load
            ) <= n + f + 1

    def test_sim(self):
        result = run_experiment("SIM")
        registers, steps_per_op = _column(result, 3), _column(result, 5)
        assert registers == sorted(registers)
        assert steps_per_op[-1] > steps_per_op[0]
