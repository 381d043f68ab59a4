"""Edge-case tests for kernel, client runtime, and listener plumbing."""

import pytest

from tests.conftest import ToyProtocol

from repro.sim.client import ClientProtocol, Context, TaskHandle
from repro.sim.events import EventListener
from repro.errors import ModelViolation
from repro.net.faults import Delay, Duplicate, FaultPlan, LinkFaults
from repro.net.lossy import LossyTransport
from repro.sim.ids import ClientId, ObjectId, ServerId
from repro.sim.kernel import Environment, RunResult
from repro.sim.objects import OpKind
from repro.sim.scheduling import RandomScheduler
from repro.sim.system import build_system


def _system(placements=None, seed=0):
    placements = placements or [(0, "register", None)]
    return build_system(1, placements, scheduler=RandomScheduler(seed))


class TestRunResult:
    def test_satisfied_only_for_until(self):
        assert RunResult(5, "until").satisfied
        for reason in ("quiescent", "blocked", "max_steps"):
            assert not RunResult(5, reason).satisfied


class TestRunUntil:
    def test_until_true_immediately_takes_zero_steps(self):
        system = _system()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        result = system.kernel.run(until=lambda k: True)
        assert result.steps == 0
        assert result.satisfied

    def test_until_checked_after_max_steps(self):
        system = _system()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        # The single permitted step completes nothing, but the predicate
        # may become true exactly at the boundary.
        result = system.kernel.run(
            max_steps=1, until=lambda k: k.time >= 1
        )
        assert result.satisfied


class TestTriggerValidation:
    def test_trigger_unsupported_kind_raises(self):
        system = _system([(0, "max-register", 0)])

        class Bad(ClientProtocol):
            def op_go(self, ctx):
                ctx.trigger(ObjectId(0), OpKind.WRITE, 1)  # not supported
                yield None

        client = system.add_client(ClientId(0), Bad())
        client.enqueue("go")
        with pytest.raises(ValueError):
            system.kernel.run(max_steps=5)


class TestUnknownIds:
    """The kernel's entry points name an id they do not know, typed,
    instead of leaking a bare ``KeyError``; nothing happens first."""

    def test_trigger_on_an_unknown_object(self):
        kernel = _system().kernel
        with pytest.raises(ModelViolation, match="unknown object b999"):
            kernel.trigger(ClientId(0), ObjectId(999), OpKind.READ, (), None)
        assert len(kernel.ops) == 0 and not kernel.pending

    def test_force_client_step_of_an_unknown_client(self):
        kernel = _system().kernel
        with pytest.raises(ModelViolation, match="unknown client c7"):
            kernel.force_client_step(ClientId(7))
        assert kernel.time == 0

    def test_crash_of_an_unknown_client(self):
        kernel = _system().kernel
        with pytest.raises(ModelViolation, match="unknown client c7"):
            kernel.crash_client(ClientId(7))

    def test_crash_of_an_unknown_server(self):
        system = _system()
        with pytest.raises(ModelViolation, match="unknown server s9"):
            system.kernel.crash_server(ServerId(9))
        assert not system.object_map.crashed_servers

    def test_object_map_refuses_another_id_type_of_a_held_index(self):
        object_map = _system().object_map
        assert object_map.object(ObjectId(0)).object_id == ObjectId(0)
        for other in (ServerId(0), ClientId(0)):
            with pytest.raises(KeyError):
                object_map.object(other)


def _lossy():
    link = LinkFaults(delay=Delay(1, 4), duplicate=Duplicate(0.5))
    return LossyTransport(FaultPlan(default=link), seed=3)


class TestResponseDelivery:
    """A respond reaches the runtime that triggered the op by reference
    (``op.runtime``); ``Kernel.trigger`` with a bare client id resolves
    that runtime from the registered clients when it triggers."""

    def test_a_context_trigger_records_its_runtime(self):
        system = _system()
        runtime = system.add_client(ClientId(0), ToyProtocol())
        runtime.enqueue("write", 1)
        system.kernel.force_client_step(ClientId(0))
        (op,) = system.kernel.pending.values()
        assert op.runtime is runtime

    @pytest.mark.parametrize("transport", [None, _lossy], ids=["inproc", "lossy"])
    def test_an_op_triggered_by_client_id_is_delivered_to_its_client(self, transport):
        system = build_system(
            1,
            [(0, "register", None)],
            scheduler=RandomScheduler(0),
            transport=transport() if transport else None,
        )
        protocol = ToyProtocol()
        runtime = system.add_client(ClientId(4), protocol)
        kernel = system.kernel
        ops = [
            kernel.trigger(ClientId(4), ObjectId(0), OpKind.WRITE, (value,), None)
            for value in range(3)
        ]
        for op in ops:
            assert op.runtime is runtime
            runtime.pending_ops.add(op.op_id)  # as Context.trigger does
        kernel.run()
        assert protocol.results == {op.op_id: "ack" for op in ops}
        assert not runtime.pending_ops
        if transport:
            assert runtime.duplicate_responses  # duplicates found it too

    def test_an_op_of_an_unregistered_client_is_dropped(self):
        system = _system()
        kernel = system.kernel
        op = kernel.trigger(ClientId(9), ObjectId(0), OpKind.WRITE, (1,), None)
        assert op.runtime is None
        kernel.run()
        assert op.respond_time is not None  # responded, delivered to no one


class TestListeners:
    class Counting(EventListener):
        def __init__(self):
            self.steps = 0
            self.triggers = 0
            self.responds = 0

        def on_step(self, time):
            self.steps += 1

        def on_trigger(self, event):
            self.triggers += 1

        def on_respond(self, event):
            self.responds += 1

    def test_counts_match_run(self):
        system = _system()
        listener = self.Counting()
        system.kernel.add_listener(listener)
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        client.enqueue("read")
        result = system.run_to_quiescence()
        assert listener.steps == system.kernel.time
        assert listener.triggers == 2
        assert listener.responds == 2

    def test_multiple_listeners_all_notified(self):
        system = _system()
        listeners = [self.Counting() for _ in range(3)]
        for listener in listeners:
            system.kernel.add_listener(listener)
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        system.run_to_quiescence()
        assert len({listener.steps for listener in listeners}) == 1


class TestContextHelpers:
    def test_all_done_and_count_done(self):
        done = TaskHandle("a", done=True)
        pending = TaskHandle("b", done=False)
        assert Context.count_done([done, pending], 1)()
        assert not Context.count_done([done, pending], 2)()

    def test_count_done_evaluations_walk_no_handle(self):
        class CountingList(list):
            iterations = 0

            def __iter__(self):
                CountingList.iterations += 1
                return super().__iter__()

        handles = CountingList(
            [TaskHandle("a", done=True), TaskHandle("b"), TaskHandle("c")]
        )
        predicate = Context.count_done(handles, 2)
        CountingList.iterations = 0
        for _ in range(5):
            assert not predicate()
        assert CountingList.iterations == 0

    def test_count_done_predicates_over_shared_handles_flip_as_tasks_finish(self):
        """Two predicates fed by the same handles, one of them done before
        either was built, both flip when the later tasks finish."""
        system = _system()
        seen = []

        class Quorums(ClientProtocol):
            def child(self):
                return "ok"
                yield  # pragma: no cover

            def op_go(self, ctx):
                first = ctx.spawn(self.child())
                yield first.wait()
                handles = [first, ctx.spawn(self.child()), ctx.spawn(self.child())]
                two = ctx.count_done(handles, 2)
                three = ctx.count_done(handles, 3)
                seen.append((two(), three()))
                yield two
                seen.append((two(), three()))
                yield three
                seen.append((two(), three()))
                return sum(handle.done for handle in handles)

        client = system.add_client(ClientId(0), Quorums())
        client.enqueue("go")
        assert system.run_to_quiescence().satisfied
        assert seen == [(False, False), (True, False), (True, True)]
        assert system.history.all_ops()[0].result == 3

    def test_task_handle_wait(self):
        handle = TaskHandle("t")
        predicate = handle.wait()
        assert not predicate()
        handle.done = True
        assert predicate()

    def test_context_exposes_time_and_id(self):
        system = _system()

        observed = {}

        class Probe(ClientProtocol):
            def op_go(self, ctx):
                observed["client"] = ctx.client_id
                observed["time"] = ctx.time
                return None
                yield  # pragma: no cover

        client = system.add_client(ClientId(9), Probe())
        client.enqueue("go")
        system.run_to_quiescence()
        assert observed["client"] == ClientId(9)
        assert observed["time"] >= 0


class TestCrashedClientResponses:
    def test_response_to_crashed_client_not_delivered_to_protocol(self):
        system = _system()
        protocol = ToyProtocol()
        client = system.add_client(ClientId(0), protocol)
        client.enqueue("write", 1)
        system.kernel.force_client_step(ClientId(0))  # trigger in flight
        system.kernel.crash_client(ClientId(0))
        (op_id,) = list(system.kernel.pending)
        system.kernel.force_respond(op_id)
        # The write took effect but the protocol handler never ran.
        assert system.object_map.object(ObjectId(0)).value == 1
        assert op_id not in protocol.results


class TestEnvironmentDefaults:
    def test_default_environment_allows_everything(self):
        env = Environment()
        assert env.allows(None, None)

    def test_default_environment_does_not_unstall(self):
        assert Environment().on_stall(None) is False


class TestKernelStats:
    def test_stats_snapshot(self):
        system = _system()
        client = system.add_client(ClientId(0), ToyProtocol())
        client.enqueue("write", 1)
        system.kernel.force_client_step(ClientId(0))
        stats = system.kernel.stats()
        assert stats["clients"] == 1
        assert stats["objects"] == 1
        assert stats["ops_triggered"] == 1
        assert stats["ops_pending"] == 1
        assert stats["covering_writes"] == 1
        system.run_to_quiescence()
        stats = system.kernel.stats()
        assert stats["ops_pending"] == 0
        assert stats["covering_writes"] == 0

    def test_stats_track_crashes(self):
        from repro.sim.ids import ServerId

        system = _system()
        system.add_client(ClientId(0), ToyProtocol())
        system.kernel.crash_client(ClientId(0))
        system.kernel.crash_server(ServerId(0))
        stats = system.kernel.stats()
        assert stats["crashed_clients"] == 1
        assert stats["crashed_servers"] == 1
