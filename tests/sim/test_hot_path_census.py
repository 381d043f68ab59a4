"""No typed-id dunder runs on the step path, and one frame settles a client.

A respond reaches its client through ``op.runtime``, a trigger finds its
object through the object map's int-keyed table, and an Algorithm 2
collect iterates a scan plan built once per client: none of them calls
the Python-level ``__hash__`` / ``__eq__`` of the identifier types or
formats an id.  These tests count those calls with wrappers installed
for the test only, so a regression shows here and not just in a
profile.  Each scenario is warmed up first (every client has run an
operation, built its scan plan, and every pending op has responded)
and then counted over further operations run by ``Kernel.run``.

The settle census counts, with a ``sys.setprofile`` hook installed for
the test only, the Python frames the kernel and the client runtime
enter while ``Kernel.run`` steps: after a client step the kernel settles
the client in exactly one ``_touch`` frame, after a delivery in exactly
one ``_settle``, and no other bookkeeping frame runs.  It counts frames
by function name, so it holds whether or not a Python inlines
comprehensions.

The KV census counts, the same way, every Python frame a warmed async
get enters over a 3-shard max-register service: one ``trigger_each``
call per quorum round, no routing for a placed key, and the exact
total.
"""

import gc
import sys
import types
from collections import Counter

import pytest

from repro.apps.shard.config import ShardServiceConfig
from repro.apps.shard.service import ShardedKVService
from repro.core.multi import SlotFleet
from repro.core.ws_register import WSRegisterClient, WSRegisterEmulation
from repro.net.faults import Delay, Duplicate, FaultPlan, LinkFaults
from repro.net.lossy import LossyTransport
from repro.sim import client as client_module
from repro.sim import ids
from repro.sim import kernel as kernel_module
from repro.sim.scheduling import RandomScheduler

#: (class, dunder) pairs counted by the census.
_COUNTED = (
    (ids._Identifier, "__hash__"),
    (ids._Identifier, "__eq__"),
    (ids.ClientId, "__str__"),
    (ids.ServerId, "__str__"),
    (ids.ObjectId, "__str__"),
)


@pytest.fixture
def census(monkeypatch):
    """Start counting: returns a Counter of ``(dunder, caller file,
    caller function)`` filled while the test runs."""
    calls = Counter()

    def counting(name, original):
        def wrapper(self, *args):
            caller = sys._getframe(1).f_code
            calls[(name, caller.co_filename.rsplit("/", 1)[-1], caller.co_name)] += 1
            return original(self, *args)

        return wrapper

    def start():
        for cls, name in _COUNTED:
            monkeypatch.setattr(cls, name, counting(name, cls.__dict__[name]))
        return calls

    return start


def _abd_shard(transport=None, substrate="max-register"):
    """A KV shard's fleet: ABD over max-registers (or, on the ``cas``
    substrate, over Algorithm 1 on CAS objects), 4 slots, n=3, f=1, one
    writer and one reader per slot, warmed up."""
    fleet = SlotFleet(
        substrate, 4, 2, 3, 1,
        scheduler=RandomScheduler(3), transport=transport,
    )
    writers = [fleet.writer(slot, 0) for slot in range(4)]
    readers = [fleet.reader(slot) for slot in range(4)]
    for runtime in writers + readers:
        runtime.enqueue("read")
    assert fleet.run_to_quiescence().reason in ("until", "quiescent")
    return fleet, writers, readers


def _lossy():
    link = LinkFaults(delay=Delay(1, 6), duplicate=Duplicate(0.2))
    return LossyTransport(FaultPlan(default=link), seed=7)


@pytest.mark.parametrize("transport", [None, _lossy], ids=["inproc", "lossy"])
def test_abd_shard_steps_call_no_identifier_dunder(census, transport):
    fleet, writers, readers = _abd_shard(transport() if transport else None)
    start = fleet.kernel.time
    calls = census()
    for value in range(5):
        for runtime in writers:
            runtime.enqueue("write", value)
        for runtime in readers:
            runtime.enqueue("read")
        fleet.run_to_quiescence()
    assert fleet.kernel.time - start > 300  # the census watched real work
    if transport:
        counters = fleet.transport.stats()
        assert counters["duplicate_responses"] and counters["flushes"]
    assert dict(calls) == {}


def _ws_register(seed=1):
    """Algorithm 2 at Figure 1's (k, n, f) = (5, 6, 2), one written
    value, every client's first collect done and no op left pending."""
    emu = WSRegisterEmulation(5, 6, 2, scheduler=RandomScheduler(seed))
    writers = [emu.add_writer(index) for index in range(2)]
    readers = [emu.add_reader() for _ in range(3)]
    writers[0].enqueue("write", "v0")
    writers[1].enqueue("write", "v1")
    for runtime in readers:
        runtime.enqueue("read")
    emu.kernel.run()  # to quiescence: the covering writes respond too
    assert not emu.kernel.pending
    return emu, writers, readers


def test_algorithm2_reads_call_no_identifier_dunder(census):
    emu, _, readers = _ws_register()
    start = emu.kernel.time
    calls = census()
    for _ in range(5):
        for runtime in readers:
            runtime.enqueue("read")
        emu.kernel.run()
    assert emu.kernel.time - start > 500
    assert dict(calls) == {}


def test_algorithm2_writes_pay_only_the_protocols_own_sets(census):
    """A write hashes registers for its ``cover_set`` / ``wr_set``
    membership (lines 6-10 and the respond handlers), once per written
    register: per write op, not per step."""
    emu, writers, readers = _ws_register()
    calls = census()
    writes = 0
    for value in range(5):
        for runtime in writers:
            runtime.enqueue("write", value)
            writes += 1
        for runtime in readers:
            runtime.enqueue("read")
        emu.kernel.run()
    sites = {(name, where, function) for name, where, function in calls}
    assert sites <= {
        ("__hash__", "ws_register.py", "op_write"),
        ("__hash__", "ws_register.py", "on_response"),
        ("__eq__", "ws_register.py", "on_response"),
    }
    registers = len(emu.layout.registers_for_writer(0))
    # op_write hashes each register of R_j at most twice (building the
    # cover set, testing it); each write respond at most twice (test,
    # then discard or add), and a write triggers at most |R_j| + f
    # writes (the retriggers of covered registers).
    per_write = 2 * registers + 2 * (registers + emu.layout.f)
    assert 0 < sum(calls.values()) <= writes * per_write


#: Frames of ``sim/kernel.py`` and ``sim/client.py`` that do a step's own
#: work (the loop and its stop test, the step, the trigger, the records,
#: the delivery, what a protocol calls on its context), not bookkeeping.
_STEP_WORK = frozenset({
    "run", "clients_quiescent", "clients_settled", "trigger", "trigger_each",
    "record_invoke", "record_return", "step", "_start_next_operation",
    "_finish_task", "deliver_response", "spawn", "count_done",
    "enough_done", "make_operation", "on_response", "client_id", "time",
    "kernel_time", "__init__",
})
_SIM_FILES = frozenset({kernel_module.__file__, client_module.__file__})
#: Algorithm 2's line-16 wait, the predicate each scan parks on.
_SCAN_PREDICATE = next(
    const
    for const in WSRegisterClient._scan.__code__.co_consts
    if isinstance(const, types.CodeType)
)


class _SettleCensus:
    """While entered, counts by function name the frames entered in the
    kernel and client modules, and as ``"scan predicate"`` the Algorithm
    2 scan waits evaluated."""

    def __init__(self):
        self.frames = Counter()

    def _hook(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename in _SIM_FILES:
                self.frames[code.co_name] += 1
            elif code is _SCAN_PREDICATE:
                self.frames["scan predicate"] += 1

    def __enter__(self):
        sys.setprofile(self._hook)

    def __exit__(self, *exc):
        sys.setprofile(None)


def _assert_one_settle_per_touch(frames, steps):
    client_steps, deliveries = frames["step"], frames["deliver_response"]
    assert client_steps + deliveries == steps  # in-process: one delivery per respond
    bookkeeping = {
        name: count
        for name, count in frames.items()
        if name not in _STEP_WORK and name != "scan predicate"
        and not (name.startswith("<") and name != "<lambda>")
    }
    assert bookkeeping == {"_touch": client_steps, "_settle": deliveries}


def test_algorithm2_rounds_settle_each_touch_in_one_frame():
    emu, writers, readers = _ws_register()
    census, start = _SettleCensus(), emu.kernel.time
    for value in range(3):
        for runtime in writers:
            runtime.enqueue("write", value)
        for runtime in readers:
            runtime.enqueue("read")
        with census:
            emu.kernel.run()
    frames = census.frames
    _assert_one_settle_per_touch(frames, emu.kernel.time - start)
    # The wait predicates are evaluated exactly as often as when each
    # touch took four frames (the counts are that tree's): an eager walk
    # to the first runnable task at every touch would evaluate more
    # line-16 scan predicates, since it polls right after a step.
    assert (frames["enough_done"], frames["scan predicate"]) == (484, 764)


def test_cas_abd_shard_settles_each_touch_in_one_frame():
    fleet, writers, readers = _abd_shard(substrate="cas")
    census, start = _SettleCensus(), fleet.kernel.time
    for value in range(3):
        for runtime in writers:
            runtime.enqueue("write", value)
        for runtime in readers:
            runtime.enqueue("read")
        with census:
            fleet.run_to_quiescence()
    frames = census.frames
    _assert_one_settle_per_touch(frames, fleet.kernel.time - start)
    assert frames["spawn"] and frames["_finish_task"]
    assert frames["enough_done"] == 517


#: keys of the KV census, all placed before it counts
_KV_KEYS = [f"k{index}" for index in range(24)]


def _kv_gets(service, sessions, rounds):
    """``rounds`` rounds of one async get per key, each stepped until
    every get completed; returns the gets run."""
    gets = 0
    for _ in range(rounds):
        for index, key in enumerate(_KV_KEYS):
            sessions[index % len(sessions)].submit_get(key, gets)
            gets += 1
        while service.step():
            pass
        assert len(service.drain_completions()) == len(_KV_KEYS)
    return gets


def test_kv_get_triggers_each_round_in_one_call_and_routes_no_placed_key():
    """Per warmed async get on a 3-shard max-register service (n = 4,
    f = 1): two ``trigger_each`` frames (the read round and the
    write-back round of ABD), no ``shard_of`` / ``_slot_for`` frame nor
    ``SlotFleet.reader`` / ``_client``, and an exact frame total.  The
    total leaves out comprehension frames (a Python that inlines
    comprehensions has none); with its 2 ``<listcomp>`` frames it reads
    128.29 per get, against 141.29 when each op of a round took a
    ``Context.trigger`` frame, each get routed its key and each
    operation formatted two strings."""
    service = ShardedKVService(
        ShardServiceConfig.make(
            shards=3, seed=11, substrate="max-register", n=4, f=1, capacity=16
        )
    )
    sessions = [service.session(writer=index % 2) for index in range(8)]
    for key in _KV_KEYS:
        sessions[0].put(key, key)
    _kv_gets(service, sessions, 2)  # every reader runtime used once
    frames = Counter()

    def hook(frame, event, arg):
        if event == "call":
            frames[frame.f_code.co_name] += 1

    # No collection inside the window: one would finalize what earlier
    # tests left behind (their suspended generators, say) in its frames.
    gc.collect()
    gc.disable()
    sys.setprofile(hook)
    try:
        gets = _kv_gets(service, sessions, 4)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert gets == 96
    assert frames["trigger_each"] == 2 * gets
    assert frames["trigger"] == 8 * gets  # n = 4 per round, in the kernel
    assert frames["shard_of"] == frames["_slot_for"] == 0
    assert frames["reader"] == frames["_client"] == 0  # no fleet lookup
    total = sum(
        count
        for name, count in frames.items()
        if not (name.startswith("<") and name != "<lambda>")
    )
    assert total == 12124  # 126.29 per get
