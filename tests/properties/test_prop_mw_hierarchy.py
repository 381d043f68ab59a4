"""Property tests: the consistency-condition hierarchy.

On random register histories (concurrent writes allowed):

    atomic  =>  MW-Strong  =>  MW-Weak,

and on write-sequential histories MW-Weak coincides with WS-Regularity.
MW-Weak and WS-Regularity share one read window, so MW-Weak is also
held to its literal definition: a linearizability search over all the
writes plus each read.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.linearizability import is_linearizable
from repro.consistency.mw_regularity import (
    check_mw_regular_strong,
    check_mw_regular_weak,
)
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.specs import RegisterSpec
from repro.consistency.ws import check_ws_regular
from repro.sim.history import History, HistoryOp
from repro.sim.ids import ClientId


@st.composite
def histories(draw, write_sequential=False):
    n_writes = draw(st.integers(min_value=1, max_value=4))
    n_reads = draw(st.integers(min_value=1, max_value=3))
    history = History()
    seq = 0
    time = 1
    values = []
    for w in range(n_writes):
        if write_sequential:
            invoke = time
            ret = invoke + draw(st.integers(min_value=1, max_value=3))
            time = ret + draw(st.integers(min_value=1, max_value=3))
        else:
            invoke = draw(st.integers(min_value=1, max_value=20))
            ret = invoke + draw(st.integers(min_value=1, max_value=10))
        value = f"v{w}"
        values.append(value)
        history.ops[seq] = HistoryOp(
            seq=seq,
            client_id=ClientId(w),
            name="write",
            args=(value,),
            invoke_time=invoke,
            return_time=ret,
            result="ack",
        )
        seq += 1
    for r in range(n_reads):
        invoke = draw(st.integers(min_value=1, max_value=35))
        ret = invoke + draw(st.integers(min_value=1, max_value=8))
        result = draw(st.sampled_from(values + ["v0"]))
        history.ops[seq] = HistoryOp(
            seq=seq,
            client_id=ClientId(100 + r),
            name="read",
            args=(),
            invoke_time=invoke,
            return_time=ret,
            result=result,
        )
        seq += 1
    return history


@given(histories())
@settings(max_examples=120, deadline=None)
def test_atomic_implies_mw_strong(history):
    if is_register_history_atomic(history, initial_value="v0"):
        assert check_mw_regular_strong(history, initial_value="v0") == []


@given(histories())
@settings(max_examples=120, deadline=None)
def test_mw_strong_implies_mw_weak(history):
    if check_mw_regular_strong(history, initial_value="v0") == []:
        assert check_mw_regular_weak(history, initial_value="v0") == []


@given(histories(write_sequential=True))
@settings(max_examples=120, deadline=None)
def test_mw_weak_equals_ws_regular_when_write_sequential(history):
    assert history.is_write_sequential()
    weak_ok = check_mw_regular_weak(history, initial_value="v0") == []
    ws_ok = check_ws_regular(history, initial_value="v0") == []
    assert weak_ok == ws_ok


@given(histories())
@settings(max_examples=200, deadline=None)
def test_mw_weak_is_the_per_read_search(history):
    spec = RegisterSpec("v0")
    writes = history.writes
    searched = [
        read.seq
        for read in history.reads
        if read.complete and not is_linearizable(writes + [read], spec)
    ]
    flagged = check_mw_regular_weak(history, initial_value="v0")
    assert [violation.read.seq for violation in flagged] == searched
