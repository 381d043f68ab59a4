"""Property test: fork + record/replay compose.

Fork a run at an idle configuration, drive branch A with a recording
scheduler, then replay its script on branch B: the two branches must end
in identical configurations (histories, object values, op counts).  This
pins down that forks are complete copies and that replay is exact.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ws_register import WSRegisterEmulation
from repro.sim.forking import fork_kernel
from repro.sim.ids import ClientId
from repro.sim.replay import RecordingScheduler, ReplayScheduler
from repro.sim.scheduling import RandomScheduler


def _fingerprint(kernel):
    history = [
        listener for listener in kernel.listeners if hasattr(listener, "reads")
    ][0]
    ops = [
        (op.seq, op.name, op.invoke_time, op.return_time, repr(op.result))
        for op in history.all_ops()
    ]
    values = [repr(obj.value) for obj in kernel.object_map.objects]
    return ops, values, len(kernel.ops), kernel.time


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_fork_then_replay_matches(prefix_seed, branch_seed):
    emu = WSRegisterEmulation(
        k=2, n=5, f=2, scheduler=RandomScheduler(prefix_seed)
    )
    writer0 = emu.add_writer(0)
    writer1 = emu.add_writer(1)
    reader = emu.add_reader()
    writer0.enqueue("write", "prefix")
    assert emu.system.run_to_quiescence(max_steps=500_000).satisfied

    branch_a, branch_b = fork_kernel(emu.kernel), fork_kernel(emu.kernel)

    # Drive branch A under a fresh recorded random schedule.
    recorder = RecordingScheduler(RandomScheduler(branch_seed))
    branch_a.scheduler = recorder
    branch_a.clients[writer1.client_id].enqueue("write", "branch")
    branch_a.clients[reader.client_id].enqueue("read")
    result = branch_a.run(max_steps=500_000)
    assert result.reason in ("quiescent", "max_steps")

    # Replay the exact script on branch B.
    branch_b.scheduler = ReplayScheduler(recorder.script)
    branch_b.clients[writer1.client_id].enqueue("write", "branch")
    branch_b.clients[reader.client_id].enqueue("read")
    branch_b.run(max_steps=len(recorder.script))

    assert _fingerprint(branch_a) == _fingerprint(branch_b)
