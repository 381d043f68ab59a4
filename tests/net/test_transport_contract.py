"""One seeded KV workload, four transports, one contract.

The same closed-loop key-value traffic runs over the in-process
transport, a fault-free :class:`~repro.net.lossy.LossyTransport`, and
real asyncio sockets with each wire codec, on the max-register and the
CAS substrates.  Whatever carries the frames, every per-key history
audits, every get returns a value that was written to its key, and
max-register ABD pays exactly its two rounds over ``n = 4`` base
objects: 8 low-level operations per KV operation.
"""

import random

import pytest

from repro.apps.shard import ShardedKVService, ShardServiceConfig
from repro.net.asyncio_transport import AsyncioTransport
from repro.net.faults import FaultPlan
from repro.net.lossy import LossyTransport

KEYS = [f"key-{index}" for index in range(12)]
OPERATIONS = 240
DEPTH = 16
SESSIONS = 6

TRANSPORTS = {
    "inproc": lambda: None,
    "lossy-neutral": lambda: LossyTransport(FaultPlan(), seed=3),
    "asyncio-json": lambda: AsyncioTransport(codec="json", idle_timeout=1.0),
    "asyncio-binary": lambda: AsyncioTransport(codec="binary", idle_timeout=1.0),
}


def _run(substrate, transport):
    """Preload every key, then ``OPERATIONS`` gets and puts with up to
    ``DEPTH`` in flight.  Returns the service's audit, the (key, value)
    of every get, the values written per key, and the low-level
    operations triggered per KV operation after the preload."""
    service = ShardedKVService(
        ShardServiceConfig.make(
            shards=1, substrate=substrate, n=4, f=1,
            capacity=len(KEYS), seed=7,
        ),
        transports=None if transport is None else [transport],
    )
    kernel = service.fleets[0].kernel
    sessions = [service.session(writer=index) for index in range(SESSIONS)]
    rng = random.Random(7)
    written = {key: set() for key in KEYS}
    reads, read_keys = [], {}
    try:
        for key in KEYS:
            sessions[0].put(key, f"{key}=0")
            written[key].add(f"{key}=0")
        triggered = len(kernel.ops)
        submitted = completed = idle = 0
        while completed < OPERATIONS:
            assert idle < 100, f"stalled at {completed}/{OPERATIONS}"
            while submitted < OPERATIONS and submitted - completed < DEPTH:
                session = sessions[submitted % SESSIONS]
                key = rng.choice(KEYS)
                if rng.random() < 0.4:
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
                    reads.append((read_keys.pop(token), result))
        per_op = (len(kernel.ops) - triggered) / OPERATIONS
        audit = service.audit()
    finally:
        service.close()
    return audit, reads, written, per_op


@pytest.mark.parametrize("substrate", ["max-register", "cas"])
@pytest.mark.parametrize("name", sorted(TRANSPORTS))
def test_every_transport_keeps_the_contract(name, substrate):
    audit, reads, written, per_op = _run(substrate, TRANSPORTS[name]())
    assert len(audit) == len(KEYS) and all(audit.values()), audit
    assert reads, "the workload issued no gets"
    for key, value in reads:
        assert value in written[key], (key, value)
    if substrate == "max-register":
        assert per_op == 8
