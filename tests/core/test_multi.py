"""Tests for the shared-fleet multi-register deployment."""

import pytest

from repro.consistency.ws import check_ws_regular
from repro.core import bounds
from repro.core import multi
from repro.core.multi import MultiRegisterDeployment, OffsetLayout, SlotFleet
from repro.core.layout import RegisterLayout
from repro.errors import BoundViolation
from repro.sim.ids import ObjectId, ServerId
from repro.sim.scheduling import RandomScheduler


def _deployment(m=2, k=2, n=5, f=2, seed=0):
    return MultiRegisterDeployment(
        m=m, k=k, n=n, f=f, scheduler=RandomScheduler(seed)
    )


class TestOffsetLayout:
    def test_shifting(self):
        base = RegisterLayout(2, 5, 2)
        shifted = OffsetLayout(base, offset=100)
        originals = base.registers_for_writer(0)
        moved = shifted.registers_for_writer(0)
        assert [oid.index - 100 for oid in moved] == [
            oid.index for oid in originals
        ]

    def test_server_of_round_trip(self):
        base = RegisterLayout(2, 5, 2)
        shifted = OffsetLayout(base, offset=10)
        for writer in range(2):
            for oid in shifted.registers_for_writer(writer):
                expected = base.server_of(ObjectId(oid.index - 10))
                assert shifted.server_of(oid) == expected

    def test_registers_on_server_shifted(self):
        base = RegisterLayout(2, 5, 2)
        shifted = OffsetLayout(base, offset=10)
        for server_index in range(5):
            sid = ServerId(server_index)
            assert [
                oid.index - 10 for oid in shifted.registers_on_server(sid)
            ] == [oid.index for oid in base.registers_on_server(sid)]


class TestDeployment:
    def test_total_registers_scale_with_m(self):
        deployment = _deployment(m=3, k=2, n=5, f=2)
        per_register = bounds.register_upper_bound(2, 5, 2)
        assert deployment.total_registers == 3 * per_register

    def test_storage_profile_sums(self):
        deployment = _deployment(m=2, k=2, n=5, f=2)
        profile = deployment.storage_profile()
        assert sum(profile.values()) == deployment.total_registers

    def test_rejects_zero_registers(self):
        with pytest.raises(ValueError):
            MultiRegisterDeployment(m=0, k=1, n=3, f=1)


class TestIndependence:
    def test_registers_do_not_interfere(self):
        deployment = _deployment(m=2, seed=3)
        reg0 = deployment.register(0)
        reg1 = deployment.register(1)
        w0 = reg0.add_writer(0)
        w1 = reg1.add_writer(0)
        r0 = reg0.add_reader()
        r1 = reg1.add_reader()
        w0.enqueue("write", "zero")
        w1.enqueue("write", "one")
        assert deployment.system.run_to_quiescence().satisfied
        r0.enqueue("read")
        r1.enqueue("read")
        assert deployment.system.run_to_quiescence().satisfied
        assert reg0.history.reads[-1].result == "zero"
        assert reg1.history.reads[-1].result == "one"

    def test_per_register_histories_are_disjoint(self):
        deployment = _deployment(m=2, seed=4)
        reg0, reg1 = deployment.register(0), deployment.register(1)
        w0 = reg0.add_writer(0)
        w1 = reg1.add_writer(1)
        w0.enqueue("write", "a")
        w1.enqueue("write", "b")
        assert deployment.system.run_to_quiescence().satisfied
        assert len(reg0.history) == 1
        assert len(reg1.history) == 1
        assert reg0.history.writes[0].args == ("a",)

    def test_each_register_ws_regular(self):
        deployment = _deployment(m=2, k=2, seed=5)
        views = [deployment.register(i) for i in range(2)]
        writers = {
            (i, w): views[i].add_writer(w) for i in range(2) for w in range(2)
        }
        readers = {i: views[i].add_reader() for i in range(2)}
        for round_index in range(2):
            for i in range(2):
                writers[(i, round_index % 2)].enqueue(
                    "write", f"reg{i}-round{round_index}"
                )
                readers[i].enqueue("read")
            assert deployment.system.run_to_quiescence().satisfied
        for i in range(2):
            assert check_ws_regular(views[i].history, cross_check=True) == []

    def test_duplicate_writer_rejected(self):
        deployment = _deployment()
        reg = deployment.register(0)
        reg.add_writer(0)
        with pytest.raises(ValueError):
            reg.add_writer(0)

    def test_scans_touch_only_own_registers(self):
        """Collects must scan delta^-1(s) *within the register's own
        base-object set* — never a co-hosted register's objects."""
        deployment = _deployment(m=2, seed=8)
        reg0 = deployment.register(0)
        own = set(oid.index for w in range(2)
                  for oid in reg0.layout.registers_for_writer(w))
        reader = reg0.add_reader()
        reader.enqueue("read")
        assert deployment.system.run_to_quiescence().satisfied
        touched = {
            op.object_id.index
            for op in deployment.kernel.ops.values()
            if op.client_id == reader.client_id
        }
        assert touched <= own
        assert touched  # it did scan something

    def test_writes_touch_only_own_registers(self):
        deployment = _deployment(m=2, seed=9)
        reg1 = deployment.register(1)
        own = set(
            oid.index for w in range(2)
            for oid in reg1.layout.registers_for_writer(w)
        )
        writer = reg1.add_writer(0)
        writer.enqueue("write", "x")
        assert deployment.system.run_to_quiescence().satisfied
        touched = {
            op.object_id.index
            for op in deployment.kernel.ops.values()
            if op.client_id == writer.client_id and op.is_mutator
        }
        assert touched <= own


class TestSharedFailures:
    def test_one_crash_hits_all_registers(self):
        deployment = _deployment(m=2, seed=6)
        deployment.crash_server(0)
        assert deployment.object_map.server(ServerId(0)).crashed
        # Both registers keep working (one crash <= f).
        for i in range(2):
            view = deployment.register(i)
            writer = view.add_writer(0)
            reader = view.add_reader()
            writer.enqueue("write", f"v{i}")
            assert deployment.system.run_to_quiescence().satisfied
            reader.enqueue("read")
            assert deployment.system.run_to_quiescence().satisfied
            assert view.history.reads[-1].result == f"v{i}"

    def test_f_crashes_tolerated_by_all(self):
        deployment = _deployment(m=3, seed=7)
        views = [deployment.register(i) for i in range(3)]
        writers = [view.add_writer(0) for view in views]
        for i, writer in enumerate(writers):
            writer.enqueue("write", f"before{i}")
        assert deployment.system.run_to_quiescence().satisfied
        deployment.crash_server(1)
        deployment.crash_server(3)
        readers = [view.add_reader() for view in views]
        for reader in readers:
            reader.enqueue("read")
        assert deployment.system.run_to_quiescence().satisfied
        for i, view in enumerate(views):
            assert view.history.reads[-1].result == f"before{i}"


class TestTable1AtBuild:
    """A fleet is refused when a slot would hold fewer base objects than
    Table 1's lower bound; the upper bound is not checked."""

    @pytest.mark.parametrize(
        "substrate,k,n,f",
        [
            ("register", 2, 5, 2),
            ("register", 5, 6, 2),
            ("max-register", 3, 3, 1),
            ("cas", 1, 7, 2),
        ],
    )
    def test_every_substrate_builds_at_or_above_the_lower_bound(
        self, substrate, k, n, f
    ):
        fleet = SlotFleet(substrate, 2, k, n, f)
        per_slot = fleet.total_objects // 2
        assert per_slot >= bounds.table1_row(substrate, k, n, f)["lower"]

    def test_a_quorum_slot_below_2f_plus_1_is_refused(self):
        with pytest.raises(BoundViolation, match="lower bound of 3"):
            SlotFleet("max-register", 1, 1, 2, 1)

    def test_a_register_layout_below_the_lower_bound_is_refused(
        self, monkeypatch
    ):
        real = multi.slot_placements

        def one_register_short(*args):
            placements, layouts = real(*args)
            return placements[:-1], layouts

        monkeypatch.setattr(multi, "slot_placements", one_register_short)
        with pytest.raises(BoundViolation, match="below Table 1"):
            SlotFleet("register", 1, 2, 5, 2)

    def test_the_upper_bound_is_not_enforced(self):
        # n = 7 > 2f+1: seven max-registers per slot, above the row's 5
        fleet = SlotFleet("max-register", 1, 1, 7, 2)
        assert fleet.total_objects == 7 > bounds.table1_row(
            "max-register", 1, 7, 2
        )["upper"]
