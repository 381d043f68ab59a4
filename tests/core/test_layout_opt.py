"""Tests for capacitated layouts (Theorem 7, constructive side)."""

import pytest

from repro.core import bounds
from repro.core.layout_opt import capacitated_layout


class TestCapacitatedLayout:
    @pytest.mark.parametrize(
        "k,f,capacity",
        [(2, 1, 1), (4, 2, 2), (6, 2, 3), (6, 2, 1), (3, 3, 2), (8, 1, 4)],
    )
    def test_respects_capacity(self, k, f, capacity):
        plan = capacitated_layout(k, f, capacity)
        assert plan.max_per_server <= capacity
        assert plan.servers >= bounds.min_servers(f)

    @pytest.mark.parametrize(
        "k,f,capacity",
        [(2, 1, 1), (4, 2, 2), (6, 2, 3), (8, 1, 4)],
    )
    def test_never_below_theorem7_floor(self, k, f, capacity):
        plan = capacitated_layout(k, f, capacity)
        assert plan.servers >= plan.theorem7_floor

    def test_capacity_one_forces_saturation(self):
        """With one register per server, n must reach at least the total
        register count kf + f + 1 (the saturated layout)."""
        plan = capacitated_layout(4, 2, 1)
        assert plan.max_per_server == 1
        assert plan.servers >= plan.total_registers
        assert plan.total_registers == 4 * 2 + 2 + 1

    def test_large_capacity_gives_minimum_servers(self):
        plan = capacitated_layout(3, 2, 100)
        assert plan.servers == bounds.min_servers(2)

    def test_layout_is_valid_algorithm2_layout(self):
        plan = capacitated_layout(5, 2, 2)
        plan.layout.validate()  # raises on any violated property
        assert plan.total_registers == bounds.register_upper_bound(
            5, plan.servers, 2
        )

    def test_slack_is_bounded(self):
        """The achieved server count stays within a small constant factor
        of Theorem 7's floor across a parameter sweep (the bound is
        nearly constructive for the balanced layout)."""
        for k in range(1, 9):
            for f in (1, 2):
                for capacity in range(1, 2 * k + 1):
                    plan = capacitated_layout(k, f, capacity)
                    assert plan.servers <= 2 * plan.theorem7_floor + f + 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            capacitated_layout(0, 1, 1)
        with pytest.raises(ValueError):
            capacitated_layout(1, 0, 1)
        with pytest.raises(ValueError):
            capacitated_layout(1, 1, 0)
