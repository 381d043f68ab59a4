"""``Context.trigger_each`` is the per-op trigger loop, in one call.

A quorum round (and Algorithm 2's lines 8-10) triggers one kind on a
set of objects in one step.  Whether a protocol writes that round as a
loop of ``ctx.trigger`` calls or as one ``ctx.trigger_each`` call, the
kernel, the transport and the client runtime must end up in the same
state: the same op ids in the same order, trigger times, trigger
events, pending ops and ready list, the same lossy heaps or socket
outbox, and the same ``pending_ops``.  These tests run both forms on
twin systems over seeded object sets (each holding a crashed object)
and compare the two states, over the in-process, lossy and self-hosted
asyncio transports.  A round the kernel refuses partway (an unknown
object, a kind the object does not support) raises ``ModelViolation``
in both forms and leaves the kernel's pending ops and the runtime's
``pending_ops`` in agreement.
"""

import random

import pytest

from repro.errors import ModelViolation
from repro.net.asyncio_transport import AsyncioTransport
from repro.net.faults import Delay, Drop, Duplicate, FaultPlan, LinkFaults
from repro.net.lossy import LossyTransport
from repro.sim.client import ClientProtocol
from repro.sim.events import EventListener
from repro.sim.ids import ClientId, ObjectId, ServerId
from repro.sim.objects import OpKind
from repro.sim.system import build_system

SERVERS, OBJECTS = 4, 12
CLIENT = ClientId(0)


def _lossy():
    link = LinkFaults(
        drop=Drop(0.2), delay=Delay(1, 6), duplicate=Duplicate(0.3)
    )
    return LossyTransport(FaultPlan(default=link), seed=5)


TRANSPORTS = {
    "inproc": lambda: None,
    "lossy": _lossy,
    "asyncio": lambda: AsyncioTransport(idle_timeout=1.0),
}


class _Rounds(ClientProtocol):
    """One high-level ``round``: trigger ``kind(args)`` on a set, as one
    ``trigger_each`` call or as a loop of ``trigger`` calls."""

    def __init__(self, batched: bool):
        self.batched = batched

    def op_round(self, ctx, object_ids, kind, args):
        if self.batched:
            ctx.trigger_each(object_ids, kind, *args)
        else:
            for object_id in object_ids:
                ctx.trigger(object_id, kind, *args)
        yield None
        return "done"


class _Triggers(EventListener):
    def __init__(self):
        self.events = []

    def on_trigger(self, event):
        op = event.op
        self.events.append(
            (event.time, op.op_id, op.client_id, op.object_id, op.kind, op.args)
        )


class _Twin:
    """One system with one client that runs rounds in one form."""

    def __init__(self, transport, batched: bool, crashed_server: int):
        self.system = build_system(
            SERVERS,
            [(index % SERVERS, "max-register", 0) for index in range(OBJECTS)],
            transport=transport,
        )
        self.kernel = self.system.kernel
        self.triggers = _Triggers()
        self.kernel.add_listener(self.triggers)
        self.runtime = self.kernel.add_client(CLIENT, _Rounds(batched))
        self.kernel.crash_server(ServerId(crashed_server))

    def round(self, object_ids, kind, args=()):
        """Invoke a round (its triggers run in that step), then return."""
        self.runtime.enqueue("round", object_ids, kind, args)
        self.kernel.force_client_step(CLIENT)
        self.kernel.force_client_step(CLIENT)

    def state(self):
        kernel, transport = self.kernel, self.kernel.transport
        state = {
            "pending": [
                (
                    op_id, op.client_id, op.object_id, op.kind, op.args,
                    op.trigger_time, op.highlevel_seq, op.ready,
                )
                for op_id, op in kernel.pending.items()
            ],
            "ready": [op.op_id for op in kernel._ready],
            "triggers": self.triggers.events,
            "pending_ops": sorted(self.runtime.pending_ops),
            "time": kernel.time,
        }
        if isinstance(transport, LossyTransport):
            state["requests"] = [
                (due, seq, op.op_id) for due, seq, op in transport._requests
            ]
            state["counters"] = dict(transport.counters)
        if isinstance(transport, AsyncioTransport):
            state["outbox"] = {
                server: [op.op_id for op in ops]
                for server, ops in transport._outbox.items()
            }
            state["inflight"] = sorted(transport._inflight)
        return state

    def close(self):
        self.kernel.transport.close()


def _twins(transport_name, crashed_server):
    make = TRANSPORTS[transport_name]
    return (
        _Twin(make(), False, crashed_server),
        _Twin(make(), True, crashed_server),
    )


def _rounds(seed):
    """Seeded rounds: object sets in random order, each holding an object
    of the crashed server, alternating ``read-max`` and ``write-max``."""
    rng = random.Random(seed)
    crashed_server = rng.randrange(SERVERS)
    crashed = [i for i in range(OBJECTS) if i % SERVERS == crashed_server]
    rounds = []
    for index in range(6):
        chosen = rng.sample(range(OBJECTS), rng.randint(2, OBJECTS - 1))
        if not any(i in crashed for i in chosen):
            chosen[rng.randrange(len(chosen))] = rng.choice(crashed)
        object_ids = [ObjectId(i) for i in chosen]
        if index % 2:
            rounds.append((object_ids, OpKind.WRITE_MAX, (rng.randrange(100),)))
        else:
            rounds.append((object_ids, OpKind.READ_MAX, ()))
    return crashed_server, rounds


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trigger_each_leaves_the_per_op_loops_state(transport, seed):
    crashed_server, rounds = _rounds(seed)
    looped, batched = _twins(transport, crashed_server)
    try:
        for object_ids, kind, args in rounds:
            looped.round(object_ids, kind, args)
            batched.round(object_ids, kind, args)
            assert batched.state() == looped.state()
        state = batched.state()
        assert len(state["triggers"]) == sum(len(ids) for ids, _, _ in rounds)
        assert state["pending_ops"] == [op for op, *_ in state["pending"]]
        if transport == "inproc":  # the crashed server's ops never got ready
            assert len(state["ready"]) < len(state["pending"])
        else:  # every request leg is still with the transport
            assert state.get("requests") or state.get("outbox")
    finally:
        looped.close()
        batched.close()


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
@pytest.mark.parametrize(
    "refused, kind",
    [
        (ObjectId(OBJECTS + 7), OpKind.READ_MAX),  # no such object
        (ObjectId(2), OpKind.CAS),  # a max-register does not CAS
    ],
    ids=["unknown-object", "unsupported-kind"],
)
def test_a_refused_round_keeps_pending_ops_in_agreement(
    transport, refused, kind
):
    looped, batched = _twins(transport, crashed_server=1)
    args = (0, 1) if kind is OpKind.CAS else ()
    if kind is OpKind.CAS:  # the round itself is refused at its first op
        object_ids = [refused, ObjectId(0)]
    else:
        object_ids = [ObjectId(0), ObjectId(5), refused, ObjectId(3)]
    try:
        for twin in (looped, batched):
            twin.round([ObjectId(4), ObjectId(1)], OpKind.READ_MAX)
            twin.runtime.enqueue("round", object_ids, kind, args)
            with pytest.raises(ModelViolation):
                twin.kernel.force_client_step(CLIENT)
        state = batched.state()
        assert state == looped.state()
        assert state["pending_ops"] == sorted(batched.kernel.pending)
        assert len(state["pending"]) == 2 + object_ids.index(refused)
    finally:
        looped.close()
        batched.close()
