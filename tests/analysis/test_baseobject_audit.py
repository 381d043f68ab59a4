"""Tests for the base-object atomicity self-audit."""

import inspect

import pytest

from repro.analysis.baseobject_audit import (
    MAX_AUDITED_OPS,
    audit_base_objects,
    object_projections,
    spec_for,
)
from repro.consistency.specs import CASSpec, MaxRegisterSpec, RegisterSpec
from repro.core.abd import ABDEmulation
from repro.core.cas_maxreg import SingleCASMaxRegister
from repro.core.ws_register import WSRegisterEmulation
from repro.sim.ids import ClientId, ObjectId
from repro.sim.kernel import RECORDED_OPS_PER_OBJECT
from repro.sim.objects import AtomicRegister, CASObject, MaxRegister
from repro.sim.scheduling import RandomScheduler
from repro.verify import verify_run


class TestSpecSelection:
    def test_specs_by_type(self):
        assert isinstance(spec_for(AtomicRegister(ObjectId(0))), RegisterSpec)
        assert isinstance(
            spec_for(MaxRegister(ObjectId(0), 0)), MaxRegisterSpec
        )
        assert isinstance(spec_for(CASObject(ObjectId(0), 0)), CASSpec)

    def test_unknown_type_rejected(self):
        class Weird:
            pass

        with pytest.raises(TypeError):
            spec_for(Weird())


class TestProjection:
    def test_projection_shape(self):
        emu = ABDEmulation(n=3, f=1, scheduler=RandomScheduler(0))
        client = emu.add_client()
        client.enqueue("write", "x")
        assert emu.system.run_to_quiescence().satisfied
        projection = object_projections(emu.kernel)[ObjectId(0)]
        assert projection, "server 0 saw no operations?"
        for record in projection:
            assert record.invoke_time < (record.return_time or 10**9)
            assert record.name in {"read_max", "write_max"}


class TestAudit:
    def test_abd_run_base_objects_atomic(self):
        emu = ABDEmulation(n=3, f=1, scheduler=RandomScheduler(1))
        clients = [emu.add_client() for _ in range(2)]
        for index, client in enumerate(clients):
            client.enqueue("write", f"v{index}")
            client.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        verdicts = audit_base_objects(emu.kernel, max_ops_per_object=None)
        assert all(verdicts.values()), verdicts

    def test_ws_register_run_base_objects_atomic(self):
        emu = WSRegisterEmulation(k=1, n=3, f=1, scheduler=RandomScheduler(2))
        writer = emu.add_writer(0)
        reader = emu.add_reader()
        writer.enqueue("write", "a")
        reader.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        verdicts = audit_base_objects(emu.kernel, max_ops_per_object=None)
        assert all(verdicts.values()), verdicts

    def test_cas_run_base_objects_atomic(self):
        mreg = SingleCASMaxRegister(initial_value=0, scheduler=RandomScheduler(3))
        clients = [mreg.add_client() for _ in range(2)]
        clients[0].enqueue("write_max", 5)
        clients[1].enqueue("write_max", 8)
        clients[0].enqueue("read_max")
        assert mreg.system.run_to_quiescence().satisfied
        verdicts = audit_base_objects(mreg.kernel, max_ops_per_object=None)
        assert all(verdicts.values()), verdicts

    def test_size_cap_skips_large_projections(self):
        emu = ABDEmulation(n=3, f=1, scheduler=RandomScheduler(4))
        client = emu.add_client()
        for index in range(5):
            client.enqueue("write", index)
        assert emu.system.run_to_quiescence().satisfied
        verdicts = audit_base_objects(emu.kernel, max_ops_per_object=1)
        assert all(verdicts.values())  # skipped, reported as unchecked-OK
        assert verdicts.skipped == [
            oid
            for oid in emu.object_map.object_ids
            if len(emu.kernel.ops.projection(oid)) > 1
        ]
        assert verdicts.skipped, "no projection over the cap of 1?"

    def test_detects_corrupted_projection(self):
        """Tamper with a recorded result: the audit must notice."""
        emu = ABDEmulation(n=3, f=1, scheduler=RandomScheduler(5))
        client = emu.add_client()
        client.enqueue("write", "x")
        client.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        # Corrupt one completed read_max's result.
        from repro.sim.objects import OpKind
        from repro.sim.values import TSVal

        for op in emu.kernel.ops.values():
            if op.kind is OpKind.READ_MAX and op.respond_time is not None:
                op.result = TSVal(999, 999, "corrupted")
                break
        verdicts = audit_base_objects(emu.kernel, max_ops_per_object=None)
        assert not all(verdicts.values())


class TestDefaultCap:
    def test_verify_run_and_the_audit_share_one_default_cap(self):
        for function in (audit_base_objects, verify_run):
            default = inspect.signature(function).parameters[
                "max_ops_per_object"
            ].default
            assert default == MAX_AUDITED_OPS == 40

    def test_the_default_cap_reads_only_projections_the_log_keeps(self):
        assert MAX_AUDITED_OPS <= RECORDED_OPS_PER_OBJECT
