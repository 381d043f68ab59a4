"""Property tests: incremental enabled-step state equals the oracle.

The kernel's incremental bookkeeping (the enabled list ``_enabled`` and
the ready list ``_ready``) must agree
with a from-scratch ``enabled_steps()`` rebuild — element for element,
in order — in *every* reachable configuration: after client steps,
responds, response deliveries, enqueues, crashes, and environment
stalls.  So must its O(1)
quiescence predicates (``clients_settled`` / ``clients_quiescent``)
with a scan of every client, including after a client crashed mid-write.
``Kernel.check_incremental`` raises on any divergence; we install it as a
step listener so every single configuration of a seeded random run is
checked, across emulation runs with chaos environments, lossy
transports and crash schedules drawn by hypothesis.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import IncrementalChecker

from repro.core.emulation import EmulationSpec
from repro.core.ws_register import WSRegisterEmulation
from repro.net import Delay, Duplicate, FaultPlan, LinkFaults, Reorder, TransportConfig
from repro.sim.chaos import ChaosEnvironment
from repro.sim.client import ClientRuntime
from repro.sim.failures import CrashPlan
from repro.sim.ids import ClientId, ServerId
from repro.sim.kernel import Kernel
from repro.sim.scheduling import RandomScheduler


def _checked_run(seed, k, rounds, chaos, crash_step):
    emu = WSRegisterEmulation(
        k,
        2 * 1 + 1 + (k > 2),  # n: 3 servers for k<=2, 4 beyond
        1,
        scheduler=RandomScheduler(seed),
        environment=(
            ChaosEnvironment(seed=seed, veto_probability=0.5, max_delay=50)
            if chaos
            else None
        ),
    )
    checker = IncrementalChecker(emu.kernel)
    emu.kernel.add_listener(checker)
    writers = [emu.add_writer(index) for index in range(k)]
    reader = emu.add_reader()
    if crash_step is not None:
        plan = (
            CrashPlan()
            .crash_server_at(crash_step, ServerId(0))
            .crash_client_at(crash_step + 7, writers[-1].client_id)
        )
        plan.install(emu.kernel)
    for index in range(rounds):
        writers[index % k].enqueue("write", index)
        reader.enqueue("read")
    emu.kernel.run(max_steps=5_000, until=Kernel.clients_settled)
    assert checker.checked > 0
    emu.kernel.check_incremental()  # and in the terminal configuration
    return checker.checked


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    k=st.integers(min_value=1, max_value=3),
    rounds=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=15, deadline=None)
def test_incremental_matches_oracle_plain_runs(seed, k, rounds):
    _checked_run(seed, k, rounds, chaos=False, crash_step=None)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rounds=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=15, deadline=None)
def test_incremental_matches_oracle_under_chaos(seed, rounds):
    """Stall/on_stall cycles must keep the two views in lockstep."""
    _checked_run(seed, k=2, rounds=rounds, chaos=True, crash_step=None)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    crash_step=st.integers(min_value=1, max_value=120),
)
@settings(max_examples=15, deadline=None)
def test_incremental_matches_oracle_across_crashes(seed, crash_step):
    """Server and client crashes must prune the incremental sets exactly."""
    _checked_run(seed, k=2, rounds=3, chaos=False, crash_step=crash_step)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    crash_step=st.integers(min_value=1, max_value=80),
)
@settings(max_examples=10, deadline=None)
def test_incremental_matches_oracle_chaos_and_crashes(seed, crash_step):
    _checked_run(seed, k=2, rounds=3, chaos=True, crash_step=crash_step)


#: Short random delays, duplicates and reordering: one pump often hands
#: a client several responses (and duplicate copies) at once.
BURSTY = FaultPlan(
    default=LinkFaults(
        duplicate=Duplicate(0.3, offset=1),
        delay=Delay(0, 4),
        reorder=Reorder(0.3, window=4),
    )
)


def _lossy_checked_run(seed, rounds):
    """Algorithm 2 over a lossy transport, checked after every step and
    after every pump; returns the most responses one client got between
    two steps and the duplicate copies dropped."""
    emu = EmulationSpec.make(
        "ws-register", k=2, n=5, f=2, seed=seed,
        transport=TransportConfig.lossy(BURSTY, seed=seed + 1),
    ).build()
    kernel, transport = emu.kernel, emu.kernel.transport
    checker = IncrementalChecker(kernel)
    kernel.add_listener(checker)
    burst = Counter()  # (time, client) -> responses delivered
    deliver, pump = kernel.deliver, transport.pump

    def counting_deliver(op):
        deliver(op)
        burst[kernel.time, op.client_id] += 1

    def checked_pump():
        pump()
        kernel.check_incremental()

    kernel.deliver = counting_deliver
    transport.pump = checked_pump
    writers = [emu.add_writer(index) for index in range(2)]
    readers = [emu.add_reader() for _ in range(2)]
    for index in range(rounds):
        writers[index % 2].enqueue("write", index)
        for reader in readers:
            reader.enqueue("read")
    assert kernel.run(max_steps=20_000, until=Kernel.clients_quiescent).satisfied
    assert checker.checked > 0
    kernel.check_incremental()
    duplicates = sum(c.duplicate_responses for c in kernel.clients.values())
    return max(burst.values()), duplicates


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rounds=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=10, deadline=None)
def test_incremental_matches_oracle_over_a_lossy_transport(seed, rounds):
    """Deliveries settle the touched client at once, however many land
    between two steps."""
    _lossy_checked_run(seed, rounds)


def test_lossy_runs_deliver_bursts_and_duplicates():
    """The plan above does reach the shapes it is there for."""
    bursts, duplicates = zip(*(_lossy_checked_run(seed, 2) for seed in range(3)))
    assert max(bursts) >= 2
    assert sum(duplicates) > 0


def _cas_abd_checked_run(seed, rounds, crash_step):
    emu = EmulationSpec.make("cas-abd", n=3, f=1, seed=seed).build()
    checker = IncrementalChecker(emu.kernel)
    emu.kernel.add_listener(checker)
    writer = emu.add_writer(0)
    readers = [emu.add_reader() for _ in range(2)]
    if crash_step is not None:
        CrashPlan().crash_server_at(crash_step, ServerId(0)).crash_client_at(
            crash_step + 5, readers[-1].client_id
        ).install(emu.kernel)
    for index in range(rounds):
        writer.enqueue("write", index)
        for reader in readers:
            reader.enqueue("read")
    emu.kernel.run(max_steps=20_000, until=Kernel.clients_settled)
    assert checker.checked > 0
    emu.kernel.check_incremental()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rounds=st.integers(min_value=1, max_value=3),
    crash_step=st.one_of(st.none(), st.integers(min_value=1, max_value=150)),
)
@settings(max_examples=15, deadline=None)
def test_incremental_matches_oracle_when_spawn_wakes_a_polling_client(
    seed, rounds, crash_step
):
    """cas-abd spawns each quorum round's per-server tasks from a step of
    a client parked on ``count_done``: ``spawn`` makes it fresh (enabled
    without a predicate) mid-step."""
    _cas_abd_checked_run(seed, rounds, crash_step)


def test_cas_abd_spawns_from_a_polling_client(monkeypatch):
    """Some cas-abd spawn comes from a client that, at its last touch, was
    mid-operation with every task parked on a predicate, and makes it
    fresh.  Whether the client was mid-operation is read on entry to the
    step: an idle client's invocation step starts an operation and
    spawns too, and does not count.  A spawn after the first in one step
    finds the client fresh already, and does not count either."""
    step = ClientRuntime.step
    spawn = ClientRuntime.spawn
    mid_op_at_entry = {}
    woken = []

    def recording_step(runtime):
        mid_op_at_entry[runtime] = not runtime.idle
        try:
            step(runtime)
        finally:
            del mid_op_at_entry[runtime]

    def counting_spawn(runtime, coroutine, name):
        mid_op = mid_op_at_entry.get(runtime, not runtime.idle)
        woken.append(mid_op and not runtime._fresh)
        return spawn(runtime, coroutine, name)

    monkeypatch.setattr(ClientRuntime, "step", recording_step)
    monkeypatch.setattr(ClientRuntime, "spawn", counting_spawn)
    _cas_abd_checked_run(3, 2, crash_step=None)
    assert any(woken)
    assert not all(woken)
