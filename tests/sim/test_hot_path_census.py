"""No typed-id dunder runs on the step path.

A respond reaches its client through ``op.runtime``, a trigger finds its
object through the object map's int-keyed table, and an Algorithm 2
collect iterates a scan plan built once per client: none of them calls
the Python-level ``__hash__`` / ``__eq__`` of the identifier types or
formats an id.  These tests count those calls with wrappers installed
for the test only, so a regression shows here and not just in a
profile.  Each scenario is warmed up first (every client has run an
operation, built its scan plan, and every pending op has responded)
and then counted over further operations run by ``Kernel.run``.
"""

import sys
from collections import Counter

import pytest

from repro.core.multi import SlotFleet
from repro.core.ws_register import WSRegisterEmulation
from repro.net.faults import Delay, Duplicate, FaultPlan, LinkFaults
from repro.net.lossy import LossyTransport
from repro.sim import ids
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


def _abd_shard(transport=None):
    """A KV shard's fleet: ABD over max-registers, 4 slots, n=3, f=1,
    one writer and one reader per slot, warmed up."""
    fleet = SlotFleet(
        "max-register", 4, 2, 3, 1,
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
