"""Tests for the closed-form bounds (Table 1, Theorems 1-7)."""

import math

import pytest

from repro.core import bounds


class TestTable1Constants:
    @pytest.mark.parametrize("f", [1, 2, 3, 5, 10])
    def test_max_register_row(self, f):
        assert bounds.max_register_lower_bound(f) == 2 * f + 1
        assert bounds.max_register_upper_bound(f) == 2 * f + 1

    @pytest.mark.parametrize("f", [1, 2, 3, 5, 10])
    def test_cas_row(self, f):
        assert bounds.cas_lower_bound(f) == 2 * f + 1
        assert bounds.cas_upper_bound(f) == 2 * f + 1

    def test_table1_row_dispatch(self):
        assert bounds.table1_row("max-register", 3, 7, 2) == {
            "lower": 5,
            "upper": 5,
        }
        assert bounds.table1_row("cas", 3, 7, 2) == {"lower": 5, "upper": 5}
        row = bounds.table1_row("register", 3, 7, 2)
        assert row["lower"] <= row["upper"]

    def test_table1_row_unknown(self):
        with pytest.raises(ValueError):
            bounds.table1_row("queue", 1, 3, 1)


class TestRegisterBounds:
    def test_lower_bound_formula(self):
        # kf + ceil(kf/(n-(f+1)))*(f+1)
        assert bounds.register_lower_bound(3, 7, 2) == (
            6 + math.ceil(6 / 4) * 3
        )

    def test_upper_bound_formula(self):
        # z = floor((7-3)/2) = 2, kf + ceil(k/z)(f+1)
        assert bounds.register_upper_bound(3, 7, 2) == 6 + 2 * 3

    def test_coincide_at_minimum_servers(self):
        """n = 2f+1: both bounds equal k(2f+1)."""
        for k in range(1, 8):
            for f in range(1, 5):
                n = 2 * f + 1
                expected = k * (2 * f + 1)
                assert bounds.register_lower_bound(k, n, f) == expected
                assert bounds.register_upper_bound(k, n, f) == expected

    def test_coincide_at_saturation(self):
        """n >= kf+f+1: both bounds equal kf+f+1."""
        for k in range(1, 8):
            for f in range(1, 5):
                n = bounds.saturation_n(k, f)
                expected = k * f + f + 1
                assert bounds.register_lower_bound(k, n, f) == expected
                assert bounds.register_upper_bound(k, n, f) == expected
                # More servers do not help further.
                assert (
                    bounds.register_upper_bound(k, n + 3, f) == expected
                )

    def test_lower_never_exceeds_upper(self):
        for k in range(1, 10):
            for f in range(1, 4):
                for n in range(2 * f + 1, 2 * f + 20):
                    assert bounds.register_lower_bound(
                        k, n, f
                    ) <= bounds.register_upper_bound(k, n, f)

    def test_grows_linearly_with_k(self):
        """The headline result: register cost is linear in k ..."""
        costs = [bounds.register_lower_bound(k, 7, 2) for k in range(1, 10)]
        deltas = [b - a for a, b in zip(costs, costs[1:])]
        assert all(d >= 2 for d in deltas)  # at least f per writer

    def test_decreases_with_n(self):
        """... and non-increasing in n (up to saturation)."""
        costs = [bounds.register_lower_bound(5, n, 2) for n in range(5, 20)]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_minimum_regardless_of_servers(self):
        """At least kf + f + 1 registers no matter how many servers."""
        for k in range(1, 8):
            for f in range(1, 4):
                for n in range(2 * f + 1, 40):
                    assert (
                        bounds.register_lower_bound(k, n, f)
                        >= k * f + f + 1
                    )

    def test_floor_is_attained(self):
        """Theorem 1's kf + f + 1 is the minimum over n, not just a floor."""
        for k in (1, 2, 4, 8):
            for f in (1, 2, 3):
                assert min(
                    bounds.register_lower_bound(k, n, f)
                    for n in range(2 * f + 1, 4 * k * f + 8)
                ) == k * f + f + 1

    def test_gap_is_small_and_nonnegative(self):
        for k in range(1, 12):
            for f in range(1, 4):
                for n in range(2 * f + 1, 30):
                    gap = bounds.register_bound_gap(k, n, f)
                    assert 0 <= gap <= (f + 1) * math.ceil(k / 2)


class TestValidation:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            bounds.register_lower_bound(0, 5, 2)

    def test_rejects_nonpositive_f(self):
        with pytest.raises(ValueError):
            bounds.register_upper_bound(1, 5, 0)

    def test_rejects_too_few_servers(self):
        with pytest.raises(ValueError):
            bounds.register_lower_bound(1, 4, 2)

    def test_min_servers(self):
        assert bounds.min_servers(2) == 5
        with pytest.raises(ValueError):
            bounds.min_servers(0)


class TestLayoutArithmetic:
    def test_z_y_examples(self):
        # Figure 1: n=6, k=5, f=2 -> z=1, y=5.
        assert bounds.z_value(6, 2) == 1
        assert bounds.y_value(6, 2) == 5

    def test_set_sizes_sum_to_upper_bound(self):
        for k in range(1, 10):
            for f in range(1, 4):
                for n in range(2 * f + 1, 20):
                    sizes = bounds.layout_set_sizes(k, n, f)
                    assert sum(sizes) == bounds.register_upper_bound(k, n, f)

    def test_set_sizes_fit_on_servers(self):
        for k in range(1, 10):
            for f in range(1, 4):
                for n in range(2 * f + 1, 20):
                    assert all(
                        2 * f + 1 <= size <= n
                        for size in bounds.layout_set_sizes(k, n, f)
                    )

    def test_figure1_total(self):
        sizes = bounds.layout_set_sizes(5, 6, 2)
        assert sizes == [5, 5, 5, 5, 5]
        assert sum(sizes) == 25

    def test_writers_supported(self):
        # A full set of y = zf+f+1 supports exactly z writers.
        for f in range(1, 4):
            for z in range(1, 6):
                assert bounds.writers_supported_by_set(
                    z * f + f + 1, f
                ) == z


class TestOtherTheorems:
    def test_theorem2_k_max_register(self):
        for k in range(1, 10):
            assert bounds.k_max_register_lower_bound(k) == k

    def test_theorem7_bounded_storage(self):
        # ceil(kf/m) + f + 1
        assert bounds.servers_needed_bounded_storage(4, 2, 2) == 4 + 3
        assert bounds.servers_needed_bounded_storage(4, 2, 8) == 1 + 3

    def test_theorem7_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            bounds.servers_needed_bounded_storage(1, 1, 0)

    def test_theorem7_matches_lemma1_accounting(self):
        """The frontier follows from Lemma 1: kf covered registers fit on
        the n - (f+1) servers outside F, each holding at most m."""
        for k in range(1, 10):
            for f in (1, 2, 3):
                for m in range(1, 3 * k):
                    n = bounds.servers_needed_bounded_storage(k, f, m)
                    assert (n - (f + 1)) * m >= k * f, (k, f, m)

    def test_theorem7_consistent_with_theorem1(self):
        """If every server stores <= m registers, Theorem 1's total must be
        attainable: n*m >= lower bound at the Theorem 7 minimum n."""
        for k in range(1, 8):
            for f in range(1, 4):
                for m in range(k, 3 * k):
                    n = bounds.servers_needed_bounded_storage(k, f, m)
                    if n >= 2 * f + 1:
                        assert n * m >= bounds.register_lower_bound(
                            k, n, f
                        ) - (f + 1) * m  # slack: F servers' storage
