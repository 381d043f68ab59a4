"""The register layout of Section 3.3 (Figure 1) and its quorum system.

Algorithm 2 partitions its base registers into disjoint sets
``R = {R_0, ..., R_{m-1}}`` — ``floor(k/z)`` full sets of ``y = zf+f+1``
registers plus, when ``z`` does not divide ``k``, an overflow set of
``(k mod z)f + f + 1`` registers — and maps the registers of each set to
pairwise distinct servers.  Writer ``w`` (0-based; see DESIGN.md on the
paper's 1-based off-by-one) writes to set ``floor(w / z)``.

Quorums:

* a **write quorum** for writers of set ``R_i`` is any subset of ``R_i``
  of size ``|R_i| - f``;
* a **read quorum** is the set of all registers mapped to some ``n - f``
  servers.

The layout realizes Figure 1's example (n=6, k=5, f=2: five disjoint
columns of five registers over six servers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core import bounds
from repro.errors import WriterBoundExceeded
from repro.sim.ids import ObjectId, ServerId
from repro.sim.system import Placement
from repro.sim.values import bottom_tsval


@dataclass(frozen=True)
class LayoutParams:
    """Derived parameters of a layout (paper notation)."""

    k: int
    n: int
    f: int
    z: int
    y: int
    m: int
    total_registers: int


class RegisterLayout:
    """Concrete register-to-server assignment for Algorithm 2.

    Registers get consecutive :class:`ObjectId`\\ s ``0 .. total-1`` in set
    order.  Within each set, registers are placed on the currently
    least-loaded servers (ties broken by server index), which balances
    storage and keeps every set on distinct servers.
    """

    def __init__(self, k: int, n: int, f: int, initial_value=None):
        sizes = bounds.layout_set_sizes(k, n, f)
        z = bounds.z_value(n, f)
        self.params = LayoutParams(
            k=k,
            n=n,
            f=f,
            z=z,
            y=bounds.y_value(n, f),
            m=len(sizes),
            total_registers=sum(sizes),
        )
        self.initial_value = initial_value
        self.set_sizes = sizes
        self.sets: "List[List[ObjectId]]" = []
        self._delta: "Dict[ObjectId, ServerId]" = {}
        # Per-server register lists, computed once (the layout is
        # immutable after _place) — scans ask for these on every collect.
        self._by_server: "Dict[ServerId, List[ObjectId]]" = {}
        self._place(sizes, n)

    def _place(self, sizes: "List[int]", n: int) -> None:
        load = [0] * n
        next_id = 0
        for size in sizes:
            if size > n:
                raise AssertionError(
                    f"register set of size {size} cannot fit on {n} servers"
                )
            # Least-loaded servers first, ties by index: balanced and
            # deterministic, and guarantees |delta(Ri)| = |Ri|.
            chosen = sorted(range(n), key=lambda s: (load[s], s))[:size]
            register_set = []
            for server_index in sorted(chosen):
                object_id = ObjectId(next_id)
                next_id += 1
                register_set.append(object_id)
                self._delta[object_id] = ServerId(server_index)
                load[server_index] += 1
            self.sets.append(register_set)

    # -- paper notation ------------------------------------------------------

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def f(self) -> int:
        return self.params.f

    @property
    def z(self) -> int:
        return self.params.z

    @property
    def total_registers(self) -> int:
        return self.params.total_registers

    @property
    def all_registers(self) -> "List[ObjectId]":
        return [oid for register_set in self.sets for oid in register_set]

    def server_of(self, object_id: ObjectId) -> ServerId:
        return self._delta[object_id]

    def set_index_for_writer(self, writer_index: int) -> int:
        """Writer ``w`` (0-based, < k) writes to set ``floor(w / z)``."""
        if not 0 <= writer_index < self.k:
            raise WriterBoundExceeded(
                f"writer index {writer_index} out of range [0, {self.k})"
            )
        return writer_index // self.z

    def registers_for_writer(self, writer_index: int) -> "List[ObjectId]":
        return list(self.sets[self.set_index_for_writer(writer_index)])

    def writers_of_set(self, set_index: int) -> "List[int]":
        """The writer indices assigned to set ``set_index``."""
        start = set_index * self.z
        return list(range(start, min(start + self.z, self.k)))

    def registers_on_server(self, server_id: ServerId) -> "List[ObjectId]":
        """This layout's registers hosted on ``server_id`` (scans read
        exactly these — relevant when several emulations share a fleet)."""
        cached = self._by_server.get(server_id)
        if cached is None:
            cached = self._by_server[server_id] = [
                oid for oid, sid in self._delta.items() if sid == server_id
            ]
        return list(cached)

    def read_quorum_servers(self) -> int:
        """Scans a reader must complete: ``n - f`` full-server scans."""
        return self.n - self.f

    # -- deployment --------------------------------------------------------------

    def placements(self) -> "List[Placement]":
        """Placement list for :func:`repro.sim.system.build_system`."""
        initial = bottom_tsval(self.initial_value)
        return [
            (self._delta[oid].index, "register", initial)
            for oid in self.all_registers
        ]

    def storage_profile(self) -> "Dict[ServerId, int]":
        profile: "Dict[ServerId, int]" = {
            ServerId(i): 0 for i in range(self.n)
        }
        for server_id in self._delta.values():
            profile[server_id] += 1
        return profile

    # -- validation (the three properties of the Algorithm 2 box) -----------------

    def validate(self) -> None:
        """Assert the layout properties the construction requires."""
        p = self.params
        # 1. Set sizes: full sets of y; overflow of (k mod z)f + f + 1.
        for index, register_set in enumerate(self.sets[:-1]):
            assert len(register_set) == p.y, f"set {index} not full"
        expected_last = (
            p.y if p.k % p.z == 0 else (p.k % p.z) * p.f + p.f + 1
        )
        assert len(self.sets[-1]) == expected_last, "overflow set size wrong"
        # 2. Pairwise disjoint.
        seen: "Set[ObjectId]" = set()
        for register_set in self.sets:
            for oid in register_set:
                assert oid not in seen, f"{oid} in two sets"
                seen.add(oid)
        # 3. |delta(Ri)| = |Ri| (distinct servers within a set).
        for index, register_set in enumerate(self.sets):
            servers = {self._delta[oid] for oid in register_set}
            assert len(servers) == len(register_set), (
                f"set {index} reuses a server"
            )
        # Totals match Theorem 3.
        assert p.total_registers == bounds.register_upper_bound(p.k, p.n, p.f)
        # Each set supports its writers: floor((|Ri|-(f+1))/f) >= #writers.
        for index, register_set in enumerate(self.sets):
            supported = bounds.writers_supported_by_set(
                len(register_set), p.f
            )
            assert supported >= len(self.writers_of_set(index)), (
                f"set {index} supports {supported} writers but has"
                f" {len(self.writers_of_set(index))}"
            )

    # -- rendering (Figure 1) ---------------------------------------------------------

    def render(self) -> str:
        """ASCII rendering in the style of Figure 1.

        One row per server; each cell names the register and the set
        (column) it belongs to.
        """
        rows = []
        by_server: "Dict[ServerId, List[Tuple[int, ObjectId]]]" = {
            ServerId(i): [] for i in range(self.n)
        }
        for set_index, register_set in enumerate(self.sets):
            for oid in register_set:
                by_server[self._delta[oid]].append((set_index, oid))
        width = max(
            (len(f"{oid}(R{si})") for si in range(len(self.sets))
             for oid in self.sets[si]),
            default=6,
        )
        for server_index in range(self.n):
            cells = [
                f"{oid}(R{set_index})".ljust(width)
                for set_index, oid in sorted(by_server[ServerId(server_index)])
            ]
            rows.append(f"s{server_index}: " + " ".join(cells))
        header = (
            f"layout k={self.k} n={self.n} f={self.f}"
            f" z={self.z} sets={self.set_sizes}"
            f" total={self.total_registers}"
        )
        return "\n".join([header] + rows)
