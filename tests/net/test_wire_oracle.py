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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WireDecodeError
from repro.net.wire import (
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
