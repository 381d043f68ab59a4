"""Property tests: incremental enabled-action state equals the oracle.

The kernel's incremental bookkeeping (``_enabled_clients`` and the
ready list ``_ready``) must agree
with a from-scratch ``enabled_actions()`` rebuild — element for element,
in order — in *every* reachable configuration: after client steps,
responds, enqueues, crashes, and environment stalls.  So must its O(1)
quiescence predicates (``clients_settled`` / ``clients_quiescent``)
with a scan of every client, including after a client crashed mid-write.
``Kernel.check_incremental`` raises on any divergence; we install it as a
step listener so every single configuration of a seeded random run is
checked, across emulation runs with chaos environments and crash
schedules drawn by hypothesis.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import IncrementalChecker

from repro.core.ws_register import WSRegisterEmulation
from repro.sim.chaos import ChaosEnvironment
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
