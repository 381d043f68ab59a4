"""The socket transport hands each batch of answers to the kernel in
op-id order.

Replicas answer per server, so a batch parsed from n connections
interleaves op ids; ``Kernel.arrive`` keeps its ready list in op-id
order and inserts an op that arrives below the largest ready one by
``bisect``, in the middle of the list.  ``AsyncioTransport`` sorts the
batch first: the kernel ends in the same state as one-by-one delivery in
any order, and a closed loop over real sockets only ever appends.
"""

import random

from repro.apps.shard.config import ShardConfig, ShardServiceConfig
from repro.apps.shard.service import ShardedKVService
from repro.core.emulation import EmulationSpec
from repro.net import TransportConfig
from repro.net.asyncio_transport import AsyncioTransport
from repro.net.wire import BinaryWireCodec
from repro.sim.ids import ClientId, ObjectId
from repro.sim.objects import OpKind

from tests.conftest import IncrementalChecker

BATCH = 24


def _triggered(count):
    """A single-server kernel on the socket transport with ``count``
    CAS ops triggered; their requests are queued, never flushed."""
    spec = EmulationSpec.make(
        "single-cas", seed=0,
        transport=TransportConfig.asyncio(),
    )
    kernel = spec.build().kernel
    ops = [
        kernel.trigger(
            ClientId(0), ObjectId(0), OpKind.CAS, (index, index + 1), None
        )
        for index in range(count)
    ]
    return kernel, kernel.transport, ops


def _answers(ops, seed):
    """The ``(op, result)`` answers to ``ops``, in a shuffled order."""
    answers = [(int(op.op_id), index) for index, op in enumerate(ops)]
    random.Random(seed).shuffle(answers)
    return answers


def _receive(transport, answers):
    """``answers`` reach the client end of the replica link as one TCP
    segment, the way a replica's batched write arrives."""
    transport._links[0].data_received(BinaryWireCodec.encode_responses(answers))


def _respond_state(kernel):
    return [(op.op_id, str(op)) for op in kernel._ready]


def _count_resorts(kernel):
    """Wrap ``kernel.arrive``: count the arrivals that insert below the
    tail of its ready list (a pending, not yet ready op below the largest
    ready one)."""
    resorts = [0]
    arrive = kernel.arrive

    def counting_arrive(op_id):
        op, ready = kernel.pending.get(op_id), kernel._ready
        if (
            op is not None
            and not op.ready
            and ready
            and op_id < ready[-1].op_id
        ):
            resorts[0] += 1
        arrive(op_id)

    kernel.arrive = counting_arrive
    return resorts


class TestBatchOrder:
    def test_a_shuffled_batch_arrives_sorted(self):
        kernel, transport, ops = _triggered(BATCH)
        try:
            resorts = _count_resorts(kernel)
            answers = _answers(ops, seed=1)
            assert [op for op, _ in answers] != sorted(op for op, _ in answers)
            _receive(transport, answers)
            assert not any(map(transport.request_arrived, ops))
            transport.pump()
            assert kernel._ready == ops
            assert resorts[0] == 0
            assert all(map(transport.request_arrived, ops))
        finally:
            transport.close()

    def test_batch_and_one_by_one_delivery_agree(self):
        batched, batched_transport, batched_ops = _triggered(BATCH)
        single, single_transport, single_ops = _triggered(BATCH)
        try:
            _receive(batched_transport, _answers(batched_ops, seed=2))
            batched_transport.pump()
            for answer in _answers(single_ops, seed=2):
                _receive(single_transport, [answer])
                single_transport.pump()
            assert _respond_state(batched) == _respond_state(single)
            assert [
                batched_transport.result_for(op) for op in batched_ops
            ] == [single_transport.result_for(op) for op in single_ops]
            assert not any(map(batched_transport.request_arrived, batched_ops))
        finally:
            batched_transport.close()
            single_transport.close()


def test_closed_loop_over_binary_sockets_never_resorts():
    """32 operations in flight on max-register ABD (n = 4 = 2f + 2), the
    shape ``kv_sock_read`` drives: every step checked against the
    from-scratch oracles, no arrival below the tail of the ready list,
    every key's history audited."""
    depth, total, keys = 32, 400, [f"key-{index}" for index in range(16)]
    transport = AsyncioTransport(idle_timeout=1.0)
    service = ShardedKVService(
        ShardServiceConfig(
            shards=(ShardConfig(n=4, f=1, capacity=len(keys)),), seed=3
        ),
        transports=[transport],
    )
    kernel = service.fleets[0].kernel
    checker = IncrementalChecker(kernel)
    kernel.add_listener(checker)
    resorts = _count_resorts(kernel)
    sessions = [service.session(writer=index) for index in range(8)]
    rng = random.Random(3)
    written = {key: set() for key in keys}
    read_keys = {}
    try:
        for key in keys:
            sessions[0].put(key, f"{key}=0")
            written[key].add(f"{key}=0")
        submitted = completed = idle = 0
        while completed < total:
            assert idle < 100, f"stalled at {completed}/{total}"
            while submitted < total and submitted - completed < depth:
                session = sessions[submitted % len(sessions)]
                key = rng.choice(keys)
                if rng.random() < 0.5:
                    value = f"{key}={submitted + 1}"
                    written[key].add(value)
                    session.submit_put(key, value, token=submitted)
                else:
                    session.submit_get(key, token=submitted)
                    read_keys[submitted] = key
                submitted += 1
            service.step(max_steps_per_shard=2_000)
            finished = service.drain_completions()
            idle = 0 if finished else idle + 1
            for token, name, result, _ in finished:
                completed += 1
                if name == "read":
                    assert result in written[read_keys.pop(token)]
    finally:
        service.close()
    assert checker.checked == kernel.time > 0
    assert resorts[0] == 0
    assert transport.decode_errors == 0
    assert not read_keys
    assert all(service.audit().values())
