"""The read-window checkers against the code they replaced.

``repro.consistency`` decides WS-Safety, WS-Regularity, MW-Weak
regularity and the write-sequential atomicity fast path from one
:class:`~repro.consistency.ws.ReadWindows`;
``tests/consistency/checkers_reference.py`` keeps the per-read scans
and searches it replaced.  On small random histories — write-sequential
or with concurrent writes, repeated values, a write of the initial
value, unhashable payloads, pending reads and writes, equal times — the
two must give the same verdicts and the same violation strings.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.consistency import checkers_reference as ref

from repro.consistency.mw_regularity import check_mw_regular_weak
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.ws import ReadWindows, check_ws_regular, check_ws_safe
from repro.sim.history import History, HistoryOp
from repro.sim.ids import ClientId


def _payloads(unhashable):
    if unhashable:
        return [[i] for i in range(4)]
    return [f"v{i}" for i in range(4)]


@st.composite
def histories(draw):
    """(history, initial value): 0-4 writes and 1-4 reads."""
    payloads = _payloads(draw(st.booleans()))
    initial = draw(st.sampled_from([None, payloads[0]]))
    sequential = draw(st.booleans())
    history = History()
    time = 1

    def add(name, args, invoke, duration, result, pending):
        seq = len(history.ops)
        history.ops[seq] = HistoryOp(
            seq=seq,
            client_id=ClientId(seq),
            name=name,
            args=args,
            invoke_time=invoke,
            return_time=None if pending else invoke + duration,
            result=None if pending else result,
        )

    n_writes = draw(st.integers(min_value=0, max_value=4))
    for w in range(n_writes):
        value = draw(st.sampled_from(payloads))
        duration = draw(st.integers(min_value=0, max_value=4))
        # Only a write-sequential history's last write may stay pending.
        pending = draw(st.booleans()) and (w == n_writes - 1 or not sequential)
        if sequential:
            invoke = time
            time += duration + draw(st.integers(min_value=1, max_value=3))
        else:
            invoke = draw(st.integers(min_value=1, max_value=10))
        add("write", (value,), invoke, duration, "ack", pending)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        invoke = draw(st.integers(min_value=1, max_value=max(time, 10) + 2))
        duration = draw(st.integers(min_value=0, max_value=5))
        result = draw(st.sampled_from(payloads + [None, "garbage"]))
        pending = draw(st.integers(min_value=0, max_value=5)) == 0
        add("read", (), invoke, duration, result, pending)
    return history, initial


def _strings(violations):
    return [str(violation) for violation in violations]


@given(histories())
@settings(max_examples=400, deadline=None)
def test_checkers_match_the_reference(case):
    history, initial = case
    assert history.is_write_sequential() == ref.is_write_sequential(history)
    for new, old in (
        (check_ws_safe, ref.check_ws_safe),
        (check_ws_regular, ref.check_ws_regular),
        (check_mw_regular_weak, ref.check_mw_regular_weak),
    ):
        assert _strings(new(history, initial)) == _strings(old(history, initial))
    assert is_register_history_atomic(
        history, initial
    ) == ref.is_register_history_atomic(history, initial)


@given(histories())
@settings(max_examples=200, deadline=None)
def test_read_values_match_the_reference_when_write_sequential(case):
    history, initial = case
    if not history.is_write_sequential():
        return
    windows = ReadWindows(history, initial)
    for read in history.reads:
        # WS-Safety leaves a read that overlaps a write unconstrained.
        safe = None if windows.overlapped(read) else windows.allowed(read)
        assert safe == ref.valid_read_values_ws_safe(history, read, initial)
        assert windows.allowed(read) == ref.valid_read_values_ws_regular(
            history, read, initial
        )
