"""Differential and unit tests for the incremental scheduling kernel.

``Kernel.run`` is the one production stepping loop: it collects from the
incrementally maintained enabled-step state, hoists the veto and
transport hooks once per call and inlines taking the step.
``reference_run`` (``tests/conftest.py``) is the same loop spelled out
with public, from-scratch calls only.  The differential tests here prove
the two are *observationally identical*: driven by the same seeded
scheduler they pick the exact same step sequence and leave
byte-identical histories and event traces — under a vetoing, stalling
environment, server and client crashes, an active lossy transport, and
all of these at once, for every algorithm in the registry.  The unit tests cover the
fast-path machinery (pre-bound listener dispatch, the O(1) round-robin
queues) and the one veto path (the environment is consulted on every
call).
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    IncrementalChecker,
    ToyProtocol,
    reference_run,
    reference_settled,
)
from tests.properties.test_prop_transport_identical import SCENARIO_TABLE

from repro.core.emulation import EmulationSpec
from repro.net import (
    Delay,
    FaultPlan,
    InProcTransport,
    LinkFaults,
    TransportConfig,
    chaos_faults,
)
from repro.sim.chaos import ChaosEnvironment
from repro.sim.events import EventListener
from repro.sim.failures import CrashPlan
from repro.sim.ids import ClientId, OpId, ServerId
from repro.sim.objects import OpKind
from repro.sim.client import ClientRuntime
from repro.sim.kernel import Environment, Kernel
from repro.sim.replay import RecordingScheduler
from repro.sim.scheduling import RandomScheduler, RoundRobinScheduler
from repro.sim.system import build_system
from repro.sim.tracing import TraceRecorder, format_entry

# -- differential: Kernel.run vs the from-scratch reference stepper --------

SCHEDULES = ("plain", "chaos", "crash", "lossy", "combined")
#: the schedules that crash server 0 (one-server algorithms skip them).
CRASHING = ("crash", "combined")


def _lossy(seed):
    return TransportConfig.lossy(
        chaos_faults(drop=0.0, duplicate=0.05, reorder=0.3, max_delay=20),
        seed=seed + 3,
    ).build()


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fingerprint(
    run, done, seed, schedule, algorithm="ws-register", check_steps=False
):
    """(script sha, history sha, trace sha, time) of one seeded scenario.

    ``run(kernel, max_steps=..., until=done)`` does the stepping —
    ``Kernel.run`` until the kernel's O(1) ``clients_settled``, or
    ``reference_run`` until the from-scratch ``reference_settled``.
    Every round is its own call, so the per-call hoisting is redone with
    clients, pending ops and in-flight messages left over from the
    previous one.
    """
    params, write_op, read_op, value_kind, _ = SCENARIO_TABLE[algorithm]
    emu = EmulationSpec.make(algorithm, seed=seed, **params).build()
    kernel = emu.kernel
    scheduler = kernel.scheduler = RecordingScheduler(kernel.scheduler)
    writers = [emu.add_writer(index) for index in range(2)]
    readers = [emu.add_reader() for _ in range(2)]
    if schedule == "chaos":
        kernel.environment = ChaosEnvironment(
            seed=seed + 17, veto_probability=0.4, max_delay=60
        )
    elif schedule == "crash":
        CrashPlan().crash_server_at(25, ServerId(0)).crash_client_at(
            60, writers[1].client_id
        ).install(kernel)
    elif schedule == "lossy":
        kernel.set_transport(_lossy(seed))
    elif schedule == "combined":
        # every respond takes the inlined local-transport branch under a
        # vetoing environment, with a respond subscriber (the recorder).
        kernel.set_transport(_lossy(seed))
        kernel.environment = ChaosEnvironment(
            seed=seed + 17, veto_probability=0.4, max_delay=60
        )
        CrashPlan().crash_server_at(25, ServerId(0)).install(kernel)
    recorder = TraceRecorder()
    kernel.add_listener(recorder)
    checker = IncrementalChecker(kernel)
    if check_steps:
        kernel.add_listener(checker)
    counter = 0
    for _ in range(3):
        for writer_index, writer in enumerate(writers):
            counter += 1
            if not writer.crashed:
                writer.enqueue(
                    write_op,
                    counter
                    if value_kind == "int"
                    else f"w{writer_index}-{counter}",
                )
        for reader in readers:
            reader.enqueue(read_op)
        result = run(kernel, max_steps=100_000, until=done)
        assert result.satisfied, (
            f"{algorithm} seed={seed} schedule={schedule} did not finish"
            f" its round: {result}"
        )
    assert recorder.entries, "the trace recorder saw no events"
    assert checker.checked == (kernel.time if check_steps else 0)
    return (
        _sha(json.dumps(scheduler.script)),
        _sha(json.dumps(emu.history.to_dicts(), sort_keys=True)),
        _sha("\n".join(format_entry(entry) for entry in recorder.entries)),
        kernel.time,
    )


def _assert_run_matches_reference(seed, schedule, algorithm="ws-register"):
    assert _fingerprint(
        Kernel.run, Kernel.clients_settled, seed, schedule, algorithm
    ) == _fingerprint(
        reference_run, reference_settled, seed, schedule, algorithm
    ), f"Kernel.run diverged from the reference stepper ({algorithm})"


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_differential_identical_action_sequences(seed):
    """The loop and the reference pick the same actions for the same seed."""
    _assert_run_matches_reference(seed, "plain")


@pytest.mark.parametrize("seed", [0, 3, 99])
def test_differential_under_chaos_environment(seed):
    """Equivalence holds with a vetoing, stalling environment in play."""
    _assert_run_matches_reference(seed, "chaos")


@pytest.mark.parametrize("seed", [0, 5, 77])
def test_differential_with_crashes(seed):
    """Equivalence holds across server and client crashes mid-run."""
    _assert_run_matches_reference(seed, "crash")


@pytest.mark.parametrize("seed", [0, 3, 99])
def test_differential_over_lossy_transport(seed):
    """Equivalence holds with seeded delay/reorder/duplicate fates in flight."""
    _assert_run_matches_reference(seed, "lossy")


@pytest.mark.parametrize("seed", [0, 8, 31])
def test_differential_combined_schedule(seed):
    """Lossy delivery, chaos vetoes, a server crash mid-run and a
    respond subscriber, all in one run."""
    _assert_run_matches_reference(seed, "combined")


def _registry_matrix():
    for algorithm, row in sorted(SCENARIO_TABLE.items()):
        for schedule in SCHEDULES:
            if schedule not in CRASHING or row[4]:  # one server: no crash
                yield algorithm, schedule


@pytest.mark.parametrize("algorithm,schedule", list(_registry_matrix()))
def test_differential_registry_algorithms(algorithm, schedule):
    _assert_run_matches_reference(123, schedule, algorithm)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scenario=st.sampled_from(list(_registry_matrix())),
)
@settings(max_examples=20, deadline=None)
def test_differential_random_scenarios(seed, scenario):
    algorithm, schedule = scenario
    _assert_run_matches_reference(seed, schedule, algorithm)


class _InProcSubclass(InProcTransport):
    """Not the plain type, so the kernel inlines neither message leg:
    every request goes through ``send_request`` and every response
    through ``send_response``."""

    def __init__(self):
        super().__init__()
        self.requests = 0

    def send_request(self, op):
        self.requests += 1
        super().send_request(op)


@pytest.mark.parametrize("schedule", ["plain", "chaos", "crash"])
def test_inproc_subclass_matches_the_inlined_transport(schedule):
    """The non-inlined in-process path gives the same script, history
    and trace as the inlined one and as the reference stepper."""
    swapped = []

    def run_over_subclass(kernel, **kwargs):
        if not swapped:  # first round: nothing triggered yet
            swapped.append(_InProcSubclass())
            kernel.set_transport(swapped[0])
        return Kernel.run(kernel, **kwargs)

    seed = 11
    via_subclass = _fingerprint(
        run_over_subclass, Kernel.clients_settled, seed, schedule
    )
    assert swapped[0].requests > 0
    assert via_subclass == _fingerprint(
        Kernel.run, Kernel.clients_settled, seed, schedule
    )
    assert via_subclass == _fingerprint(
        reference_run, reference_settled, seed, schedule
    )


@pytest.mark.parametrize("algorithm,schedule", list(_registry_matrix()))
def test_quiescence_predicates_match_the_oracle_every_step(algorithm, schedule):
    """``clients_settled`` / ``clients_quiescent`` equal a scan of every
    client after each step, for all 7 algorithms under every schedule
    (the crash schedule kills a writer, usually mid-write)."""
    _fingerprint(
        Kernel.run,
        Kernel.clients_settled,
        321,
        schedule,
        algorithm,
        check_steps=True,
    )


def test_check_incremental_holds_throughout_a_run():
    """The oracle-vs-incremental assertion passes at every step."""
    system = build_system(
        1, [(0, "register", None)], scheduler=RandomScheduler(4)
    )

    checker = IncrementalChecker(system.kernel)
    system.kernel.add_listener(checker)
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)
    client.enqueue("read")
    assert system.run_to_quiescence().satisfied
    assert checker.checked > 0
    system.kernel.check_incremental()  # and in the final configuration


def test_check_incremental_detects_divergence():
    system = build_system(1, [(0, "register", None)])
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)  # the client is now genuinely enabled
    # Corrupt the incremental state behind the kernel's back.
    system.kernel._enabled.clear()
    with pytest.raises(RuntimeError, match="diverged"):
        system.kernel.check_incremental()


def test_check_incremental_detects_a_stale_enabled_flag():
    system = build_system(1, [(0, "register", None)])
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)
    system.kernel.check_incremental()
    client._listed = False  # still in the enabled list, flag cleared
    with pytest.raises(RuntimeError, match="enabled flags"):
        system.kernel.check_incremental()


def test_check_incremental_detects_a_wrong_candidate_count():
    system = build_system(1, [(0, "register", None)])
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)
    system.kernel.check_incremental()
    system.kernel._candidate_count += 1
    with pytest.raises(RuntimeError, match="candidate count"):
        system.kernel.check_incremental()


def test_check_incremental_detects_a_stale_candidate_flag():
    system = build_system(1, [(0, "register", None)])
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)
    system.kernel.check_incremental()
    client._candidate = False  # the count still holds it
    with pytest.raises(RuntimeError, match="candidate flags"):
        system.kernel.check_incremental()


def test_check_incremental_detects_a_stale_fresh_flag():
    system = build_system(1, [(0, "register", None)])
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)
    system.kernel.force_client_step(client.client_id)  # parked on its write
    system.kernel.check_incremental()
    client._fresh = True
    with pytest.raises(RuntimeError, match="fresh flags"):
        system.kernel.check_incremental()


def test_check_incremental_detects_a_done_task_left_in_the_list():
    system = build_system(1, [(0, "register", None)])
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)
    system.kernel.force_client_step(client.client_id)
    system.kernel.check_incremental()
    client.tasks[0].handle.done = True
    with pytest.raises(RuntimeError, match="done tasks"):
        system.kernel.check_incremental()


class _SpawnsOnResponse(ToyProtocol):
    """A write parks on a flag its own respond never sets; the respond
    handler spawns the task that sets it."""

    def op_write(self, ctx, value):
        ctx.trigger(self.object_id, OpKind.WRITE, value)
        self.finished = False
        yield lambda: self.finished
        return "ack"

    def on_response(self, ctx, op):
        def finish():
            self.finished = True
            yield None

        ctx.spawn(finish(), name="finish")


def test_a_spawn_in_a_respond_handler_enables_a_parked_client():
    """A delivery is a touch: the spawned task is runnable at once, though
    every wait predicate of the client still reads False."""
    system = build_system(1, [(0, "register", None)])
    kernel = system.kernel
    client = system.add_client(ClientId(0), _SpawnsOnResponse())
    client.enqueue("write", 1)
    kernel.force_client_step(client.client_id)  # trigger, park on the flag
    assert kernel._enabled_clients() == []
    kernel.force_respond(OpId(0))  # delivered inline: on_response spawns
    assert kernel._enabled_clients() == [client]
    kernel.check_incremental()
    assert system.run_to_quiescence().satisfied
    kernel.check_incremental()


def test_check_incremental_detects_a_wrong_quiescence_answer():
    system = build_system(1, [(0, "register", None)])
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)
    system.kernel.force_client_step(client.client_id)  # write in flight
    system.kernel.crash_client(client.client_id)
    system.kernel.check_incremental()
    assert system.kernel.clients_settled()
    assert not system.kernel.clients_quiescent()
    system.kernel._crashed_mid_op = 0  # forget the orphaned write
    with pytest.raises(RuntimeError, match="clients_quiescent"):
        system.kernel.check_incremental()


# -- run_to_quiescence over the O(1) predicate --------------------------------


def _two_toy_clients(seed=3):
    system = build_system(
        1, [(0, "register", None)], scheduler=RandomScheduler(seed)
    )
    first = system.add_client(ClientId(0), ToyProtocol())
    second = system.add_client(ClientId(1), ToyProtocol())
    return system, first, second


def test_client_crashed_mid_write_never_reads_as_quiescent():
    """The orphaned write keeps ``active_seq``: the run ends because
    nothing is enabled, never because the predicate held."""
    system, writer, other = _two_toy_clients()
    writer.enqueue("write", 1)
    other.enqueue("write", 2)
    system.kernel.force_client_step(writer.client_id)
    assert not writer.idle
    system.kernel.crash_client(writer.client_id)
    result = system.run_to_quiescence()
    assert result.reason in ("quiescent", "blocked")
    assert result.satisfied is False
    assert other.idle and not other.program  # the live client finished
    # ... and it stays that way on every later call.
    other.enqueue("read")
    assert system.run_to_quiescence().satisfied is False


def test_idle_client_crash_leaves_quiescence_reachable():
    system, writer, other = _two_toy_clients()
    system.kernel.crash_client(writer.client_id)  # idle: nothing orphaned
    other.enqueue("write", 2)
    other.enqueue("read")
    result = system.run_to_quiescence()
    assert result.reason == "until" and result.satisfied
    # A queued-but-never-invoked operation dies with its client too.
    other.enqueue("write", 3)
    system.kernel.crash_client(other.client_id)
    assert system.run_to_quiescence().reason == "until"


# -- listener pre-binding --------------------------------------------------


class _CountingListener(EventListener):
    def __init__(self):
        self.triggers = 0
        self.steps = 0

    def on_trigger(self, event):
        self.triggers += 1

    def on_step(self, time):
        self.steps += 1


def test_add_listener_subscribes_only_overridden_hooks():
    system = build_system(1, [(0, "register", None)])
    kernel = system.kernel
    baseline = {
        attr: len(getattr(kernel, attr))
        for attr in (
            "_subs_trigger",
            "_subs_respond",
            "_subs_invoke",
            "_subs_return",
            "_subs_crash",
            "_subs_step",
        )
    }
    listener = _CountingListener()
    kernel.add_listener(listener)
    assert len(kernel._subs_trigger) == baseline["_subs_trigger"] + 1
    assert len(kernel._subs_step) == baseline["_subs_step"] + 1
    # Hooks left at the EventListener defaults are never dispatched to.
    for attr in ("_subs_respond", "_subs_invoke", "_subs_return", "_subs_crash"):
        assert len(getattr(kernel, attr)) == baseline[attr]
    assert listener in kernel.listeners


def test_prebound_listener_receives_events():
    system = build_system(1, [(0, "register", None)])
    listener = _CountingListener()
    system.kernel.add_listener(listener)
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)
    assert system.run_to_quiescence().satisfied
    assert listener.triggers == 1
    assert listener.steps == system.kernel.time


def test_trace_recorder_kinds_filter_skips_subscription():
    system = build_system(1, [(0, "register", None)])
    kernel = system.kernel
    respond_subs = len(kernel._subs_respond)
    recorder = TraceRecorder(kinds={"invoke", "return"})
    kernel.add_listener(recorder)
    assert len(kernel._subs_respond) == respond_subs  # masked hook skipped
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)
    assert system.run_to_quiescence().satisfied
    kinds = {entry.kind for entry in recorder.entries}
    assert kinds == {"invoke", "return"}


def test_trace_recorder_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="unknown event kinds"):
        TraceRecorder(kinds={"invoke", "teleport"})


# -- veto consultation ------------------------------------------------------


class _VetoAll(Environment):
    """Vetoes every respond; counts consultations."""

    def __init__(self):
        self.consultations = 0

    def allows(self, op, kernel):
        self.consultations += 1
        return False


def test_environment_consulted_on_every_call():
    env = _VetoAll()
    system = build_system(1, [(0, "register", None)], environment=env)
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)
    system.kernel.force_client_step(ClientId(0))
    assert system.kernel.run(max_steps=1).reason == "blocked"
    assert system.kernel.run(max_steps=1).reason == "blocked"
    assert env.consultations == 2  # consulted afresh each time


def test_vetoed_run_blocks_like_before():
    env = _VetoAll()
    system = build_system(1, [(0, "register", None)], environment=env)
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)
    result = system.kernel.run(max_steps=100)
    assert result.reason == "blocked"


# -- the hoisted hooks are re-read by every call ----------------------------


def test_environment_and_scheduler_swapped_between_runs_are_honoured():
    """``run`` hoists both per call; the next call must see the swap."""
    system = build_system(1, [(0, "register", None)])
    kernel = system.kernel
    client = system.add_client(ClientId(0), ToyProtocol())
    client.enqueue("write", 1)
    assert system.run_to_quiescence().satisfied  # default: no veto hook
    kernel.environment = _VetoAll()  # default -> vetoing
    client.enqueue("write", 2)
    assert kernel.run(max_steps=100).reason == "blocked"
    kernel.environment = Environment()  # vetoing -> default
    recording = kernel.scheduler = RecordingScheduler(RoundRobinScheduler())
    result = system.run_to_quiescence()
    assert result.satisfied and result.steps > 0
    assert len(recording.script) == result.steps  # it made every choice


@pytest.mark.parametrize("veto,reason", [(True, "blocked"), (False, "quiescent")])
def test_active_transport_reason_matches_reference(veto, reason):
    """In-flight messages are flushed in before the run is declared over.

    Vetoed: the delayed request arrives by ``flush_idle``, its respond is
    refused, and only then is the stall final.  Not vetoed: request and
    response legs are both flushed in and the write completes.
    """

    def build():
        transport = TransportConfig.lossy(
            FaultPlan(default=LinkFaults(delay=Delay(5, 5))), seed=5
        ).build()
        system = build_system(
            1,
            [(0, "register", None)],
            environment=_VetoAll() if veto else None,
            transport=transport,
        )
        system.add_client(ClientId(0), ToyProtocol()).enqueue("write", 1)
        return system.kernel

    kernel = build()
    result = kernel.run(max_steps=1_000)
    assert result == reference_run(build(), max_steps=1_000)
    assert result.reason == reason
    assert len(kernel.pending) == (1 if veto else 0)
    assert kernel.transport.stats()["flushes"] > 0


# -- round-robin queues: policy and memory bound ---------------------------


def test_round_robin_does_not_accumulate_responded_ops():
    """Long runs must not leak queue entries for dead op ids."""
    system = build_system(
        1, [(0, "register", None)], scheduler=RoundRobinScheduler()
    )
    client = system.add_client(ClientId(0), ToyProtocol())
    for index in range(200):
        client.enqueue("write", index)
    assert system.run_to_quiescence().satisfied
    scheduler = system.kernel.scheduler
    tracked = len(scheduler._fresh) + len(scheduler._served)
    # 200 writes = 200 distinct respond steps over the run; only the
    # client step plus at most a sweep-interval of stale responds may
    # remain tracked.
    assert tracked <= 1 + RoundRobinScheduler._SWEEP_INTERVAL
    responds = [
        step
        for queue in (scheduler._fresh, scheduler._served)
        for step in queue
        if step[0] == "respond"
    ]
    live = [step for step in responds if step[1] in system.kernel.pending]
    assert not live  # nothing pending at quiescence


def test_round_robin_policy_fresh_first_then_least_recent():
    scheduler = RoundRobinScheduler()
    a, b, c, d = (ClientRuntime(ClientId(i), ToyProtocol()) for i in range(4))

    def picked(clients):
        return clients[scheduler.pick(clients, (), None)]

    # First pass: fresh steps win in first-seen order.
    assert picked([a, b, c]) is a
    assert picked([a, b, c]) is b
    assert picked([a, b, c]) is c
    # All served: least-recently-picked wins.
    assert picked([a, b, c]) is a
    assert picked([b, c]) is b
    # A newly appearing step is fresh and preempts the served ones.
    assert picked([c, d]) is d
    assert picked([c, d]) is c
