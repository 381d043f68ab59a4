"""Tests for the Section 3.3 register layout (Figure 1)."""

import pytest

from repro.core import bounds
from repro.core.layout import RegisterLayout
from repro.sim.ids import ObjectId, ServerId


class TestFigure1:
    """The paper's concrete example: n=6, k=5, f=2."""

    def setup_method(self):
        self.layout = RegisterLayout(k=5, n=6, f=2)

    def test_parameters(self):
        assert self.layout.z == 1
        assert self.layout.params.y == 5
        assert self.layout.params.m == 5

    def test_total_registers(self):
        assert self.layout.total_registers == 25
        assert self.layout.total_registers == bounds.register_upper_bound(
            5, 6, 2
        )

    def test_each_writer_own_set(self):
        # z = 1: one writer per set.
        sets = {self.layout.set_index_for_writer(w) for w in range(5)}
        assert sets == {0, 1, 2, 3, 4}

    def test_validates(self):
        self.layout.validate()

    def test_render_mentions_all_servers(self):
        text = self.layout.render()
        for s in range(6):
            assert f"s{s}:" in text


class TestLayoutProperties:
    @pytest.mark.parametrize(
        "k,n,f",
        [
            (1, 3, 1),
            (2, 3, 1),
            (3, 5, 2),
            (4, 7, 2),
            (5, 6, 2),
            (7, 9, 2),
            (6, 10, 3),
            (9, 8, 2),
            (10, 23, 2),
        ],
    )
    def test_validate_over_sweep(self, k, n, f):
        layout = RegisterLayout(k, n, f)
        layout.validate()

    def test_sweep_totals_and_balance(self):
        """27 (k, n, f) points: valid, Theorem 3's total, and no server
        loaded past one over the balanced share."""
        for f in (1, 2, 3):
            for k in (1, 3, 6):
                for n in (2 * f + 1, 2 * f + 3, 4 * f + 2):
                    layout = RegisterLayout(k, n, f)
                    layout.validate()
                    total = layout.total_registers
                    assert total == bounds.register_upper_bound(k, n, f)
                    loads = layout.storage_profile().values()
                    assert max(loads) <= -(-total // n) + 1, (k, n, f)

    def test_sets_disjoint(self):
        layout = RegisterLayout(4, 7, 2)
        seen = set()
        for register_set in layout.sets:
            for oid in register_set:
                assert oid not in seen
                seen.add(oid)

    def test_sets_on_distinct_servers(self):
        layout = RegisterLayout(6, 9, 2)
        for register_set in layout.sets:
            servers = {layout.server_of(oid) for oid in register_set}
            assert len(servers) == len(register_set)

    def test_writer_assignment_z_per_set(self):
        layout = RegisterLayout(k=5, n=9, f=2)  # z = 3
        assert layout.z == 3
        assert layout.set_index_for_writer(0) == 0
        assert layout.set_index_for_writer(2) == 0
        assert layout.set_index_for_writer(3) == 1
        assert layout.set_index_for_writer(4) == 1

    def test_writers_of_set_partition(self):
        layout = RegisterLayout(k=7, n=9, f=2)
        all_writers = []
        for set_index in range(len(layout.sets)):
            all_writers.extend(layout.writers_of_set(set_index))
        assert sorted(all_writers) == list(range(7))

    def test_writer_index_bounds(self):
        layout = RegisterLayout(2, 5, 2)
        with pytest.raises(ValueError):
            layout.set_index_for_writer(2)
        with pytest.raises(ValueError):
            layout.set_index_for_writer(-1)

    def test_overflow_set_size(self):
        # k=5, n=9, f=2: z=3, full sets of y=9... wait y = zf+f+1 = 9.
        layout = RegisterLayout(k=5, n=9, f=2)
        assert layout.set_sizes[0] == 9
        # overflow: (5 mod 3)*2 + 3 = 7
        assert layout.set_sizes[1] == 7

    def test_quorum_sizes(self):
        layout = RegisterLayout(3, 7, 2)
        assert layout.read_quorum_servers() == 5


class TestTheorem1Pigeonhole:
    """The G-set structure used in Theorem 1's proof, on real layouts.

    The proof partitions servers into G (storing >= ceil(kf/(n-f-1))
    registers) and the rest, then argues |G| >= f+1.  Any layout actually
    achieving the coincidence points must exhibit that structure.
    """

    @pytest.mark.parametrize(
        "k,f",
        [(1, 1), (2, 1), (3, 2), (5, 2), (4, 3)],
    )
    def test_G_has_at_least_f_plus_1_servers_at_minimum_n(self, k, f):
        import math

        n = 2 * f + 1
        layout = RegisterLayout(k, n, f)
        threshold = math.ceil(k * f / (n - (f + 1)))
        G = [
            sid
            for sid, count in layout.storage_profile().items()
            if count >= threshold
        ]
        assert len(G) >= f + 1

    def test_non_G_servers_still_carry_kf(self):
        """Lemma 1(b): kf covered registers fit outside any f+1 servers —
        so the layout must place >= kf registers outside every (f+1)-set.
        Check the heaviest-loaded f+1 servers' complement."""
        import itertools

        k, n, f = 3, 5, 2
        layout = RegisterLayout(k, n, f)
        profile = layout.storage_profile()
        for F in itertools.combinations(profile, f + 1):
            outside = sum(
                count for sid, count in profile.items() if sid not in F
            )
            assert outside >= k * f


class TestPlacements:
    def test_placement_count(self):
        layout = RegisterLayout(3, 7, 2)
        assert len(layout.placements()) == layout.total_registers

    def test_placement_type_and_initial(self):
        layout = RegisterLayout(1, 3, 1, initial_value="init")
        server, type_name, initial = layout.placements()[0]
        assert type_name == "register"
        assert initial.val == "init"
        assert initial.ts == 0

    def test_storage_profile_balanced(self):
        layout = RegisterLayout(6, 6, 2)
        profile = layout.storage_profile()
        loads = sorted(profile.values())
        assert loads[-1] - loads[0] <= 1  # balanced placement

    def test_storage_profile_totals(self):
        layout = RegisterLayout(4, 7, 2)
        assert sum(layout.storage_profile().values()) == (
            layout.total_registers
        )
