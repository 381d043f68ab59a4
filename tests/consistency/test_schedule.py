"""Tests for the Appendix A.1 schedule utilities."""

from repro.consistency.schedule import (
    is_sequential,
    is_well_formed,
    project_client,
)
from repro.sim.history import History, HistoryOp
from repro.sim.ids import ClientId


def _op(seq, name, invoke, ret, client=0, args=(), result=None):
    return HistoryOp(
        seq=seq,
        client_id=ClientId(client),
        name=name,
        args=args,
        invoke_time=invoke,
        return_time=ret,
        result=result,
    )


def _history(entries):
    history = History()
    for op in entries:
        history.ops[op.seq] = op
    return history


class TestProjections:
    def test_project_client(self):
        history = _history(
            [
                _op(0, "write", 1, 2, client=0),
                _op(1, "read", 3, 4, client=1),
                _op(2, "read", 5, 6, client=0),
            ]
        )
        mine = project_client(history, ClientId(0))
        assert [o.seq for o in mine] == [0, 2]


class TestWellFormedness:
    def test_sequential(self):
        assert is_sequential([_op(0, "a", 1, 2), _op(1, "b", 3, 4)])
        assert not is_sequential([_op(0, "a", 1, 5), _op(1, "b", 3, 8)])

    def test_well_formed_history(self):
        history = _history(
            [
                _op(0, "write", 1, 2, client=0),
                _op(1, "read", 1, 5, client=1),  # concurrent across clients OK
                _op(2, "read", 3, 4, client=0),
            ]
        )
        assert is_well_formed(history)

    def test_ill_formed_history(self):
        history = _history(
            [
                _op(0, "write", 1, 10, client=0),
                _op(1, "read", 2, 5, client=0),  # same client, overlapping
            ]
        )
        assert not is_well_formed(history)

    def test_kernel_histories_are_well_formed(self):
        from repro.core.abd import ABDEmulation
        from repro.sim.scheduling import RandomScheduler

        emu = ABDEmulation(n=3, f=1, scheduler=RandomScheduler(5))
        clients = [emu.add_client() for _ in range(3)]
        for index, client in enumerate(clients):
            client.enqueue("write", index)
            client.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        assert is_well_formed(emu.history)
