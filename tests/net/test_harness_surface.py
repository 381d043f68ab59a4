"""What ``benchmarks/e2e`` reads from ``src/``, held fixed.

The end-to-end harness is frozen between benchmark re-cuts, so the few
library names it alone still calls must not move under it: the codec
lookup (``repro.net.wire.get_codec``), the JSON cost reference it times
as ``net.wire.json_encode_us_per_frame``, the ``codec=`` argument of
``AsyncioTransport`` that its traced run passes,
``Kernel.run_batched``, and what it reads off each fleet of a
``ShardedKVService``.  Tier-1 never imports the harness itself; this
checks its surface from the library side.
"""

import pytest

from repro.apps.shard import ShardedKVService, ShardServiceConfig
from repro.errors import InvalidConfig
from repro.net.asyncio_transport import AsyncioTransport
from repro.net.wire import BinaryWireCodec, get_codec
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.kernel import Kernel
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.values import TSVal

#: what ``spans.TracedCodec`` reads off the codec it wraps.
TRACED_ATTRIBUTES = (
    "name",
    "read_frame",
    "encode_request",
    "encode_response",
    "decode_request",
    "decode_response",
)


class _Named:
    """A codec-shaped object, as the harness's traced wrapper is."""

    name = "binary"


def test_binary_lookup_is_the_binary_codec():
    codec = get_codec("binary")
    assert codec is BinaryWireCodec
    assert codec.name == "binary"
    for attribute in TRACED_ATTRIBUTES:
        assert hasattr(codec, attribute), attribute


def test_json_reference_frames_are_pinned():
    # one ABD write, ``write_max`` of a timestamped value, and its answer;
    # built here, not at import: tests/apps/test_retention.py counts the
    # live LowLevelOp objects of the whole process.
    answer = TSVal(ts=4, wid=1, val="v-4")
    write = LowLevelOp(
        OpId(7), ClientId(2), ObjectId(3), OpKind.WRITE_MAX, (answer,), 0
    )
    reference = get_codec("json")
    assert reference.name == "json"
    assert reference.encode_request(write) == (
        b'{"args": [{"__tsval__": [4, 1, "v-4"]}], "client": 2,'
        b' "kind": "write_max", "object": 3, "op": 7}\n'
    )
    assert reference.encode_response(7, answer) == (
        b'{"op": 7, "result": {"__tsval__": [4, 1, "v-4"]}}\n'
    )


@pytest.mark.parametrize("codec", ["binary", _Named()], ids=["name", "object"])
def test_the_transport_takes_the_binary_codec(codec):
    AsyncioTransport(codec=codec)


@pytest.mark.parametrize("codec", ["json", "msgpack"])
def test_the_transport_refuses_any_other_codec(codec):
    with pytest.raises(InvalidConfig):
        AsyncioTransport(codec=codec)


def test_kernel_keeps_run_batched():
    assert callable(Kernel.run_batched)


def _service():
    return ShardedKVService(
        ShardServiceConfig.make(shards=2, n=3, f=1, capacity=4, seed=3)
    )


def test_each_fleet_exposes_what_the_harness_reads():
    service = _service()
    service.session(writer=0).put("k", "v")
    for fleet in service.fleets:
        assert fleet.kernel is not None
        assert fleet.transport is fleet.kernel.transport
        assert fleet.total_objects == 4 * 3
        assert fleet.objects_per_slot == 3
    histories = [slot.history for f in service.fleets for slot in f.slots]
    assert sum(len(history) for history in histories) == 1


def test_step_and_put_look_up_run_to_quiescence_on_the_instance():
    # the harness's ``spans.Tracer.wrap`` shadows ``run_to_quiescence``
    # with an instance attribute; its span lives only if the service
    # calls through the fleet instance.
    service = _service()
    calls = []
    for fleet in service.fleets:
        inner = fleet.run_to_quiescence

        def counted(*args, _inner=inner, _fleet=fleet, **kwargs):
            calls.append(_fleet)
            return _inner(*args, **kwargs)

        fleet.run_to_quiescence = counted
    service.step()
    assert calls == service.fleets
    del calls[:]
    service.session(writer=0).put("k", "v")
    assert calls == [service.fleets[service.shard_of("k")]]
