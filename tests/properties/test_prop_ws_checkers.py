"""Property tests: the fast WS checkers agree with the exact search.

Random write-sequential histories are generated with arbitrary read
placements and read results drawn from written values, the initial value,
or garbage; the fast WS-Regular window check must agree exactly with the
general linearizability search over ``writes + {rd}`` (the literal
Appendix A.3 definition).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.linearizability import is_linearizable
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.specs import RegisterSpec
from repro.consistency.ws import ReadWindows, check_ws_regular, check_ws_safe
from repro.sim.history import History, HistoryOp
from repro.sim.ids import ClientId


@st.composite
def ws_histories(draw):
    """A random write-sequential history with 1-4 writes and 1-3 reads."""
    n_writes = draw(st.integers(min_value=1, max_value=4))
    n_reads = draw(st.integers(min_value=1, max_value=3))
    history = History()
    time = 1
    seq = 0
    write_values = []
    for w in range(n_writes):
        duration = draw(st.integers(min_value=1, max_value=4))
        value = f"v{w}"
        write_values.append(value)
        history.ops[seq] = HistoryOp(
            seq=seq,
            client_id=ClientId(w),
            name="write",
            args=(value,),
            invoke_time=time,
            return_time=time + duration,
            result="ack",
        )
        time += duration + draw(st.integers(min_value=1, max_value=3))
        seq += 1
    horizon = time + 5
    for r in range(n_reads):
        invoke = draw(st.integers(min_value=1, max_value=horizon))
        ret = invoke + draw(st.integers(min_value=1, max_value=6))
        result = draw(
            st.sampled_from(write_values + ["v0", "garbage"])
        )
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


@given(ws_histories())
@settings(max_examples=150, deadline=None)
def test_fast_ws_regular_agrees_with_search(history):
    assert history.is_write_sequential()
    # cross_check=True asserts fast == slow internally per read.
    check_ws_regular(history, initial_value="v0", cross_check=True)


@given(ws_histories())
@settings(max_examples=150, deadline=None)
def test_ws_safe_implies_ws_regular(history):
    """Any WS-Safe violation on an isolated read is also disallowed by
    WS-Regularity (safety is weaker: fewer reads constrained, but where
    both constrain, the safe value set is a subset)."""
    safe_violations = {
        v.read.seq for v in check_ws_safe(history, initial_value="v0")
    }
    regular_violations = {
        v.read.seq for v in check_ws_regular(history, initial_value="v0")
    }
    assert safe_violations <= regular_violations


@given(ws_histories())
@settings(max_examples=150, deadline=None)
def test_atomicity_implies_ws_regularity(history):
    """Linearizable histories satisfy WS-Regularity."""
    if is_register_history_atomic(history, initial_value="v0"):
        assert check_ws_regular(history, initial_value="v0") == []


@given(ws_histories())
@settings(max_examples=150, deadline=None)
def test_fast_atomicity_agrees_with_search(history):
    fast = is_register_history_atomic(history, initial_value="v0")
    slow = is_linearizable(
        list(history.all_ops()), RegisterSpec("v0")
    )
    assert fast == slow


@given(ws_histories())
@settings(max_examples=100, deadline=None)
def test_regular_window_values_accepted_by_search(history):
    """Every value the fast window allows is indeed linearizable."""
    writes = history.writes
    windows = ReadWindows(history, initial_value="v0")
    for read in history.reads:
        if not read.complete:
            continue
        for value in windows.allowed(read):
            candidate = HistoryOp(
                seq=read.seq,
                client_id=read.client_id,
                name="read",
                args=(),
                invoke_time=read.invoke_time,
                return_time=read.return_time,
                result=value,
            )
            assert is_linearizable(
                writes + [candidate], RegisterSpec("v0")
            )
