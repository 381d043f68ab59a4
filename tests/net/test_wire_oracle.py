"""The binary codec against its reference: same bytes, same values,
same failures.

``tests/net/wire_reference.py`` is the straightforward codec the fast
path replaced, kept verbatim.  External ``repro serve`` peers speak the
bytes it produces, so the production codec must match it frame for
frame: byte-identical encodings, decodes equal down to the type of every
nested value, and the same exception class on every truncated payload.
Arbitrary payloads must fail the same way too, except where the
reference leaked a bare ``UnicodeDecodeError`` / ``RecursionError`` —
the production codec wraps both as ``WireDecodeError``.
"""

import struct
from collections import namedtuple
from typing import Any, Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireDecodeError
from repro.net.wire import (
    MAX_FRAME_BYTES,
    BinaryWireCodec,
    decode_binary_request,
    decode_binary_response,
    encode_binary_request,
    encode_binary_response,
)
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.values import TSVal, bottom_tsval

from tests.net import wire_reference as reference
from tests.net.test_wire_binary import _values


def _same(a, b):
    """Deep equality that also compares types, TSVal payloads (TSVal's
    own ``==`` ignores ``val``) and the sign of zero."""
    if type(a) is not type(b):
        return False
    if isinstance(a, TSVal):
        return _same(a.ts, b.ts) and _same(a.wid, b.wid) and _same(a.val, b.val)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    return a == b


def _same_op(a, b):
    return (
        _same(a.op_id, b.op_id)
        and _same(a.client_id, b.client_id)
        and _same(a.object_id, b.object_id)
        and a.kind is b.kind
        and _same(a.args, b.args)
        and a.trigger_time == b.trigger_time
    )


def _outcome(decode, payload):
    """``("ok", value)`` or ``("raised", exception class)``; the
    reference's two leaks are mapped to the class now raised."""
    try:
        return "ok", decode(payload)
    except (UnicodeDecodeError, RecursionError):
        return "raised", WireDecodeError
    except Exception as error:  # noqa: BLE001 - the class is the claim
        return "raised", type(error)


def _request(args, kind=OpKind.WRITE, op=7, client=2, obj=3):
    return LowLevelOp(OpId(op), ClientId(client), ObjectId(obj), kind, args, 0)


def _assert_decodes_alike(payload, decode, decode_reference, same):
    got, want = _outcome(decode, payload), _outcome(decode_reference, payload)
    assert got[0] == want[0], (payload.hex(), got, want)
    if got[0] == "ok":
        assert same(got[1], want[1]), payload.hex()
    else:
        assert got[1] is want[1], (payload.hex(), got, want)


def _same_response(a, b):
    return list(a) == list(b) and _same(a["op"], b["op"]) and _same(
        a["result"], b["result"]
    )


@given(
    args=st.lists(_values(), max_size=3).map(tuple),
    kind=st.sampled_from(list(OpKind)),
    ids=st.tuples(*(st.integers(min_value=0, max_value=2**40),) * 3),
)
@settings(max_examples=150, deadline=None)
def test_request_frames_match_the_reference(args, kind, ids):
    op = _request(args, kind, *ids)
    frame = encode_binary_request(op)
    assert type(frame) is bytes
    assert frame == reference.encode_binary_request(op)
    payload = frame[4:]
    assert _same_op(
        decode_binary_request(payload), reference.decode_binary_request(payload)
    )
    for cut in range(len(payload)):
        _assert_decodes_alike(
            payload[:cut],
            decode_binary_request,
            reference.decode_binary_request,
            _same_op,
        )


@given(result=_values(), op_value=st.integers(min_value=0, max_value=2**70))
@settings(max_examples=150, deadline=None)
def test_response_frames_match_the_reference(result, op_value):
    frame = encode_binary_response(op_value, result)
    assert type(frame) is bytes
    assert frame == reference.encode_binary_response(op_value, result)
    payload = frame[4:]
    assert _same_response(
        decode_binary_response(payload),
        reference.decode_binary_response(payload),
    )
    for cut in range(len(payload)):
        _assert_decodes_alike(
            payload[:cut],
            decode_binary_response,
            reference.decode_binary_response,
            _same_response,
        )


@given(body=st.binary(max_size=64))
@settings(max_examples=300, deadline=None)
def test_arbitrary_payloads_decode_or_fail_alike(body):
    for decode, decode_reference, same, kind in (
        (
            decode_binary_request,
            reference.decode_binary_request,
            _same_op,
            b"\x01",
        ),
        (
            decode_binary_response,
            reference.decode_binary_response,
            _same_response,
            b"\x02",
        ),
    ):
        for payload in (body, kind + body):
            _assert_decodes_alike(payload, decode, decode_reference, same)


_Pair = namedtuple("_Pair", "left right")


class _Text(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        OpId(5),  # int subclass: encodes as its plain value
        True,
        False,
        _Pair(1, "x"),  # tuple subclass
        _Text("sub"),
        bottom_tsval(),  # wid = -1: a negative int inside a TSVal
        TSVal(ts=OpId(3), wid=0, val=None),  # non-int ts
        TSVal(ts=2**70, wid=-(2**65), val=b"\x00\xff"),
        -64,
        63,
        64,
        -65,
        2**64,
        "é" * 200,  # a length that needs a two-byte varint
        3.5,
        [None, (), {}],
        {"b": 1, "a": (2,)},
    ],
    ids=repr,
)
def test_the_isinstance_shapes_match_the_reference(value):
    frame = encode_binary_response(9, value)
    assert frame == reference.encode_binary_response(9, value)
    assert _same_response(
        decode_binary_response(frame[4:]),
        reference.decode_binary_response(frame[4:]),
    )
    op = _request((value,))
    assert encode_binary_request(op) == reference.encode_binary_request(op)


def test_bytearray_and_memoryview_payloads_decode_to_bytes():
    frame = encode_binary_response(1, (b"raw", "text"))
    for payload in (bytearray(frame[4:]), memoryview(frame)[4:]):
        decoded = decode_binary_response(payload)["result"]
        assert _same(decoded, (b"raw", "text"))


#: The four frames of a ``kv_sock_read`` operation (max-register ABD: a
#: ``read_max`` round, then a ``write_max`` round), byte for byte.
_KEY_VALUE = TSVal(ts=70, wid=3, val="key-5=v1")
KV_SOCK_READ_FRAMES = [
    (
        "read_max() request",
        lambda: encode_binary_request(
            _request((), OpKind.READ_MAX, 100_000, 50_001, 5)
        ),
        "0000000b01a08d06d1860305020800",
    ),
    (
        "write_max(TSVal) request",
        lambda: encode_binary_request(
            _request((_KEY_VALUE,), OpKind.WRITE_MAX, 100_001, 1, 6)
        ),
        "0000001901a18d0601060308010a038c01030605086b65792d353d7631",
    ),
    (
        "TSVal response",
        lambda: encode_binary_response(100_000, _KEY_VALUE),
        "0000001402a08d060a038c01030605086b65792d353d7631",
    ),
    (
        '"ack" response',
        lambda: encode_binary_response(100_001, "ack"),
        "0000000902a18d06050361636b",
    ),
    (
        '"ok" response (what write_max answers)',
        lambda: encode_binary_response(100_001, "ok"),
        "0000000802a18d0605026f6b",
    ),
]


@pytest.mark.parametrize(
    "encode, expected",
    [(encode, expected) for _, encode, expected in KV_SOCK_READ_FRAMES],
    ids=[name for name, _, _ in KV_SOCK_READ_FRAMES],
)
def test_kv_sock_read_frames_are_pinned(encode, expected):
    assert encode().hex() == expected


# -- segments ------------------------------------------------------------------
#
# The socket path codes a whole outbox flush or TCP read per call.  Its
# segment functions must produce exactly the concatenated reference
# frames and decode any cut of them, carried tail and all, to what the
# reference decodes frame by frame.


#: the ``TSVal`` shapes the protocols ship, with large timestamps and
#: negative writer ids (the bottom value's ``wid`` is -1).
_SHIPPED_TSVALS = st.builds(
    TSVal,
    ts=st.integers(min_value=0, max_value=2**70),
    wid=st.integers(min_value=-(2**40), max_value=2**40),
    val=st.one_of(st.none(), st.text(max_size=40)),
)
_IDS = st.integers(min_value=0, max_value=2**70)


class _Segments(NamedTuple):
    """One codec's segment functions and the per-frame reference."""

    codec: Any
    encode_request: Callable
    decode_request: Callable
    encode_response: Callable
    decode_response: Callable
    #: a reference frame as its per-frame decoder takes it
    payload: Callable
    values: Callable


_SEGMENTS = {
    "binary": _Segments(
        BinaryWireCodec,
        reference.encode_binary_request,
        reference.decode_binary_request,
        reference.encode_binary_response,
        reference.decode_binary_response,
        lambda frame: frame[4:],
        _values,
    ),
}


def _args(values):
    return st.one_of(
        st.just(()),
        st.tuples(_SHIPPED_TSVALS),
        st.tuples(_SHIPPED_TSVALS, _SHIPPED_TSVALS),
        st.lists(values, max_size=3).map(tuple),
    )


def _ops(values):
    return st.lists(
        st.builds(
            _request,
            _args(values),
            st.sampled_from(list(OpKind)),
            _IDS,
            _IDS,
            _IDS,
        ),
        max_size=6,
    )


def _pairs(values):
    result = st.one_of(
        _SHIPPED_TSVALS, st.sampled_from(["ok", "ack"]), st.none(), values
    )
    return st.lists(st.tuples(_IDS, result), max_size=6)


def _fed(decode, blob, cuts):
    """``blob`` cut at ``cuts`` and fed read by read, the tail of each
    decode prepended to the next piece: every item, and the last tail."""
    edges = [0, *sorted(cut % (len(blob) + 1) for cut in cuts), len(blob)]
    items, tail = [], b""
    for start, end in zip(edges, edges[1:]):
        decoded, tail = decode(tail + blob[start:end])
        items.extend(decoded)
    return items, tail


_CUTS = st.lists(st.integers(min_value=0), max_size=8)


@pytest.mark.parametrize("name", sorted(_SEGMENTS))
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_request_segments_match_the_reference_frames(name, data):
    segments = _SEGMENTS[name]
    ops = data.draw(_ops(segments.values()))
    frames = [segments.encode_request(op) for op in ops]
    blob = b"".join(frames)
    assert segments.codec.encode_requests(ops) == blob
    decoded, tail = _fed(segments.codec.decode_requests, blob, data.draw(_CUTS))
    assert tail == b""
    expected = [segments.decode_request(segments.payload(f)) for f in frames]
    assert len(decoded) == len(expected)
    assert all(map(_same_op, decoded, expected))


@pytest.mark.parametrize("name", sorted(_SEGMENTS))
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_response_segments_match_the_reference_frames(name, data):
    segments = _SEGMENTS[name]
    pairs = data.draw(_pairs(segments.values()))
    frames = [segments.encode_response(op, result) for op, result in pairs]
    blob = b"".join(frames)
    assert segments.codec.encode_responses(pairs) == blob
    decoded, tail = _fed(segments.codec.decode_responses, blob, data.draw(_CUTS))
    assert tail == b""
    expected = [segments.decode_response(segments.payload(f)) for f in frames]
    assert len(decoded) == len(expected)
    for (op, result), frame in zip(decoded, expected):
        assert _same(op, frame["op"]) and _same(result, frame["result"])


@pytest.mark.parametrize(
    "decode",
    [BinaryWireCodec.decode_requests, BinaryWireCodec.decode_responses],
    ids=["requests", "responses"],
)
def test_an_oversized_length_prefix_fails_before_its_body(decode):
    """The four prefix bytes are enough to refuse the read: nothing of
    the body is waited for, and the read's earlier frames are refused
    with it, as the length-prefix walk always did."""
    good = (
        encode_binary_request(_request(()))
        if decode is BinaryWireCodec.decode_requests
        else encode_binary_response(1, "ok")
    )
    oversized = struct.pack(">I", MAX_FRAME_BYTES + 1)
    for data in (oversized, good + oversized, good + oversized + b"\x01"):
        with pytest.raises(WireDecodeError) as failure:
            decode(data)
        assert not failure.value.decoded
