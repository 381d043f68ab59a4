"""Debugging-surface tests: string forms and step-budget regressions."""

import pytest

from tests.conftest import ToyProtocol

from repro.consistency.ws import WSViolation
from repro.sim.history import HistoryOp
from repro.sim.ids import ClientId, ObjectId, OpId, ServerId
from repro.sim.objects import AtomicRegister, LowLevelOp, OpKind
from repro.sim.scheduling import RoundRobinScheduler
from repro.sim.server import Server


class TestStringForms:
    """The strings humans read while debugging must carry the essentials."""

    def test_lowlevel_op(self):
        op = LowLevelOp(
            op_id=OpId(3),
            client_id=ClientId(1),
            object_id=ObjectId(2),
            kind=OpKind.WRITE,
            args=(7,),
            trigger_time=5,
        )
        text = str(op)
        assert "op3" in text and "write" in text and "pending" in text
        op.respond_time = 9
        assert "responded@9" in str(op)

    def test_server(self):
        server = Server(ServerId(1))
        assert "up" in str(server)
        server.crashed = True
        assert "crashed" in str(server)

    def test_base_object(self):
        register = AtomicRegister(ObjectId(0), initial_value="x")
        assert "register" in str(register) and "'x'" in str(register)

    def test_history_op(self):
        op = HistoryOp(
            seq=0,
            client_id=ClientId(0),
            name="write",
            args=("v",),
            invoke_time=1,
            return_time=None,
        )
        assert "pending" in str(op)

    def test_ws_violation(self):
        op = HistoryOp(
            seq=0,
            client_id=ClientId(0),
            name="read",
            args=(),
            invoke_time=1,
            return_time=2,
            result="bad",
        )
        violation = WSViolation(op, allowed=["good"], condition="WS-Safe")
        text = str(violation)
        assert "WS-Safe" in text and "'bad'" in text and "'good'" in text


class TestStepBudgets:
    """Deterministic step budgets guard against accidental quadratic
    regressions in the emulations (steps are seed-independent under the
    round-robin scheduler)."""

    def test_algorithm2_write_read_budget(self):
        from repro.core.ws_register import WSRegisterEmulation

        emu = WSRegisterEmulation(
            k=2, n=5, f=2, scheduler=RoundRobinScheduler()
        )
        writer = emu.add_writer(0)
        reader = emu.add_reader()
        writer.enqueue("write", "v")
        assert emu.system.run_to_quiescence(max_steps=100_000).satisfied
        reader.enqueue("read")
        assert emu.system.run_to_quiescence(max_steps=100_000).satisfied
        # 10 registers: a write is one collect (~2 ops per register +
        # scheduling) plus a write round; generous 3x headroom.
        assert emu.kernel.time < 200

    def test_abd_write_read_budget(self):
        from repro.core.abd import ABDEmulation

        emu = ABDEmulation(n=5, f=2, scheduler=RoundRobinScheduler())
        client = emu.add_client()
        client.enqueue("write", "v")
        client.enqueue("read")
        assert emu.system.run_to_quiescence(max_steps=100_000).satisfied
        assert emu.kernel.time < 100

    def test_cas_maxregister_budget(self):
        from repro.core.cas_maxreg import SingleCASMaxRegister

        register = SingleCASMaxRegister(
            initial_value=0, scheduler=RoundRobinScheduler()
        )
        client = register.add_client()
        for value in range(1, 6):
            client.enqueue("write_max", value)
        assert register.system.run_to_quiescence(max_steps=100_000).satisfied
        # 5 uncontended writes at 3 CAS round trips each, plus steps.
        assert register.kernel.time < 120
