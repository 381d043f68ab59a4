"""Pin the respond-time semantics (Assumption 1) in both directions.

Operations take effect at their *respond* step: a read triggered before
a write can still observe it (the read responds later), and a write
triggered first can land last, erasing newer values.  These semantics are
exactly the adversary's leverage, so they get their own tests.
"""

from tests.conftest import ToyProtocol

from repro.sim.ids import ClientId, ObjectId
from repro.sim.scheduling import RandomScheduler
from repro.sim.system import build_system


def _system():
    return build_system(
        1, [(0, "register", "initial")], scheduler=RandomScheduler(0)
    )


class TestReadsSeeRespondTimeState:
    def test_read_triggered_early_responds_late_sees_new_value(self):
        system = _system()
        reader = system.add_client(ClientId(0), ToyProtocol())
        writer = system.add_client(ClientId(1), ToyProtocol())
        reader.enqueue("read")
        system.kernel.force_client_step(ClientId(0))  # read pending
        read_op = next(iter(system.kernel.pending.values()))
        writer.enqueue("write", "fresh")
        system.kernel.force_client_step(ClientId(1))  # write pending
        write_op = [
            op for op in system.kernel.pending.values() if op is not read_op
        ][0]
        # The write responds (takes effect) BEFORE the earlier-triggered
        # read responds: the read must return the new value.
        system.kernel.force_respond(write_op.op_id)
        system.kernel.force_respond(read_op.op_id)
        system.run_to_quiescence()
        assert system.history.reads[0].result == "fresh"

    def test_read_responding_first_sees_old_value(self):
        system = _system()
        reader = system.add_client(ClientId(0), ToyProtocol())
        writer = system.add_client(ClientId(1), ToyProtocol())
        reader.enqueue("read")
        system.kernel.force_client_step(ClientId(0))
        read_op = next(iter(system.kernel.pending.values()))
        writer.enqueue("write", "fresh")
        system.kernel.force_client_step(ClientId(1))
        system.kernel.force_respond(read_op.op_id)
        system.run_to_quiescence()
        assert system.history.reads[0].result == "initial"


class TestWritesLandAtRespond:
    def test_late_responding_write_erases_newer_value(self):
        system = _system()
        first = system.add_client(ClientId(0), ToyProtocol())
        second = system.add_client(ClientId(1), ToyProtocol())
        first.enqueue("write", "old")
        system.kernel.force_client_step(ClientId(0))
        old_write = next(iter(system.kernel.pending.values()))
        second.enqueue("write", "new")
        system.kernel.force_client_step(ClientId(1))
        new_write = [
            op
            for op in system.kernel.pending.values()
            if op is not old_write
        ][0]
        system.kernel.force_respond(new_write.op_id)
        assert system.object_map.object(ObjectId(0)).value == "new"
        system.kernel.force_respond(old_write.op_id)  # covering write lands
        assert system.object_map.object(ObjectId(0)).value == "old"

    def test_per_object_respond_order_is_linearization_order(self):
        """The object history equals respond order — checked against the
        general linearizability checker."""
        from repro.analysis.baseobject_audit import audit_base_objects

        system = _system()
        system.kernel.ops.record()  # the audit reads the run's every op
        clients = [
            system.add_client(ClientId(i), ToyProtocol()) for i in range(3)
        ]
        for index, client in enumerate(clients):
            client.enqueue("write", f"v{index}")
            client.enqueue("read")
        assert system.run_to_quiescence().satisfied
        verdicts = audit_base_objects(system.kernel, max_ops_per_object=None)
        assert all(verdicts.values()), verdicts
