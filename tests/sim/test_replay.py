"""Tests for schedule record/replay."""

import pytest

from tests.conftest import ToyProtocol

from repro.core.ws_register import WSRegisterEmulation
from repro.sim.client import ClientRuntime
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.replay import (
    RecordingScheduler,
    ReplayDivergence,
    ReplayScheduler,
    describe,
    materialize,
)
from repro.sim.scheduling import RandomScheduler
from repro.sim.system import build_system


def _fingerprint(history):
    return [
        (op.seq, op.name, op.invoke_time, op.return_time, repr(op.result))
        for op in history.all_ops()
    ]


class TestDescriptors:
    def test_round_trip(self):
        clients = [ClientRuntime(ClientId(3), ToyProtocol())]
        responds = [
            LowLevelOp(OpId(9), ClientId(3), ObjectId(0), OpKind.READ, (), 0)
        ]
        assert describe(clients, responds, 0) == ("client", 3)
        assert describe(clients, responds, 1) == ("respond", 9)
        for index in (0, 1):
            descriptor = describe(clients, responds, index)
            assert materialize(descriptor, clients, responds) == index
        assert materialize(("client", 4), clients, responds) is None
        assert materialize(("respond", 8), clients, responds) is None

    def test_unknown_descriptor(self):
        with pytest.raises(ValueError):
            materialize(("teleport", 1), [], [])


class TestRecordReplay:
    def _drive(self, scheduler):
        emu = WSRegisterEmulation(k=2, n=5, f=2, scheduler=scheduler)
        writers = [emu.add_writer(i) for i in range(2)]
        reader = emu.add_reader()
        for index in range(2):
            writers[index].enqueue("write", f"v{index}")
            reader.enqueue("read")
            assert emu.system.run_to_quiescence(max_steps=500_000).satisfied
        return emu

    def test_replay_reproduces_history_exactly(self):
        recorder = RecordingScheduler(RandomScheduler(42))
        original = self._drive(recorder)
        replayed = self._drive(ReplayScheduler(recorder.script))
        assert _fingerprint(original.history) == _fingerprint(
            replayed.history
        )
        assert original.kernel.time == replayed.kernel.time

    def test_script_serializes(self):
        import json

        recorder = RecordingScheduler(RandomScheduler(1))
        self._drive(recorder)
        encoded = json.dumps(recorder.script)
        decoded = [tuple(entry) for entry in json.loads(encoded)]
        assert decoded == recorder.script

    def test_divergence_detected(self):
        recorder = RecordingScheduler(RandomScheduler(3))
        system = build_system(
            1, [(0, "register", None)], scheduler=recorder
        )
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        system.run_to_quiescence()
        # Replay against a DIFFERENT program: the script's actions stop
        # matching and the replayer raises instead of silently drifting.
        replay_system = build_system(
            1, [(0, "register", None)],
            scheduler=ReplayScheduler(recorder.script),
        )
        other = replay_system.add_client(ClientId(5), ToyProtocol())
        other.enqueue("write", 1)
        with pytest.raises(ReplayDivergence):
            replay_system.run_to_quiescence()

    def test_exhausted_script(self):
        scheduler = ReplayScheduler([])
        system = build_system(
            1, [(0, "register", None)], scheduler=scheduler
        )
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        with pytest.raises(ReplayDivergence):
            system.run_to_quiescence()
