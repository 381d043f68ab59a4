"""Capacitated layouts: deploying Algorithm 2 under per-server limits.

Theorem 7 lower-bounds the number of servers when each server stores at
most ``m`` registers.  This module supplies the constructive side: given
``(k, f, m)``, find a server count ``n`` and a register layout such that

* the layout is a valid Algorithm 2 layout for ``(k, n, f)`` (disjoint
  sets, distinct servers per set, Theorem 3 register count), and
* no server stores more than ``m`` registers,

using as few servers as possible (scanning ``n`` upward from the maximum
of the Theorem 5 and Theorem 7 floors).  The gap between the achieved
``n`` and Theorem 7's bound quantifies how constructive the bound is for
Algorithm 2's particular layout shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import bounds
from repro.core.layout import RegisterLayout
from repro.errors import InvalidConfig, LayoutSearchExhausted


@dataclass(frozen=True)
class CapacitatedPlan:
    """Result of :func:`capacitated_layout`."""

    k: int
    f: int
    capacity: int
    servers: int
    theorem7_floor: int
    layout: RegisterLayout

    @property
    def max_per_server(self) -> int:
        return max(self.layout.storage_profile().values())

    @property
    def total_registers(self) -> int:
        return self.layout.total_registers

    @property
    def slack_over_floor(self) -> int:
        """Extra servers beyond Theorem 7's lower bound."""
        return self.servers - self.theorem7_floor


def _fits(k: int, n: int, f: int, capacity: int) -> "Optional[RegisterLayout]":
    layout = RegisterLayout(k, n, f)
    if max(layout.storage_profile().values()) <= capacity:
        return layout
    return None


def capacitated_layout(
    k: int, f: int, capacity: int, max_servers: int = 10_000
) -> CapacitatedPlan:
    """Smallest Algorithm 2 deployment respecting a per-server capacity.

    Raises ``InvalidConfig`` for non-positive parameters and
    ``LayoutSearchExhausted`` if no deployment fits within
    ``max_servers`` (cannot happen for sane inputs: with ``n >= kf + f +
    1`` the balanced layout stores at most one register per server...
    and capacity >= 1).
    """
    if k <= 0 or f <= 0:
        raise InvalidConfig("k and f must be positive")
    if capacity <= 0:
        raise InvalidConfig("capacity must be positive")
    floor_n = max(
        bounds.min_servers(f),
        bounds.servers_needed_bounded_storage(k, f, capacity),
    )
    n = floor_n
    while n <= max_servers:
        layout = _fits(k, n, f, capacity)
        if layout is not None:
            layout.validate()
            return CapacitatedPlan(
                k=k,
                f=f,
                capacity=capacity,
                servers=n,
                theorem7_floor=bounds.servers_needed_bounded_storage(
                    k, f, capacity
                ),
                layout=layout,
            )
        n += 1
    raise LayoutSearchExhausted(
        f"no capacitated layout within {max_servers} servers for"
        f" k={k}, f={f}, capacity={capacity}"
    )
