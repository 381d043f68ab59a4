"""Fuzz/property tests for the binary wire codec.

Four claims, each load-bearing for running real protocols over it:

* **Round-trip fidelity** — every value shape the protocols can put on
  the wire (unicode strings, raw bytes, arbitrary-precision ints,
  floats, None, booleans, nested lists/tuples/dicts, TSVal timestamps)
  survives encode→decode exactly, type included (tuple stays tuple,
  ``True`` never collapses into ``1``).
* **Loud rejection** — truncated payloads, trailing garbage, unknown
  tags and oversized length prefixes raise; no prefix of a valid frame
  decodes to a partial value.
* **JSON↔binary equivalence** — on a recorded seeded cluster session
  (every low-level request and response of a full WSRegister run), the
  two codecs decode each other's input to the same operations and the
  same results.
* **Framing** — the segment decoders the socket protocols call per TCP
  segment (``decode_requests`` / ``decode_responses``) yield exactly
  what the stream-reading ``read_frame`` plus the per-frame decoder
  yield, in every chunking of the byte stream (both codecs, both legs).
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.wire import (
    MAX_FRAME_BYTES,
    BinaryWireCodec,
    JsonWireCodec,
    decode_binary_request,
    decode_binary_response,
    encode_binary_request,
    encode_binary_response,
    get_codec,
)
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.values import TSVal


def _values(max_leaves=20):
    """Recursive strategy over every wire-encodable value shape.

    Floats exclude NaN (NaN != NaN breaks round-trip equality, and no
    protocol value is ever NaN); dict keys are strings, the only key
    type either codec accepts.
    """
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),  # unbounded: LEB128 must carry any precision
        st.floats(allow_nan=False),
        st.text(),
        st.binary(),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
            st.builds(
                TSVal,
                ts=st.integers(min_value=0, max_value=2**40),
                wid=st.integers(min_value=0, max_value=64),
                val=children,
            ),
        ),
        max_leaves=max_leaves,
    )


def _request(args):
    return LowLevelOp(
        op_id=OpId(7),
        client_id=ClientId(2),
        object_id=ObjectId(3),
        kind=OpKind.WRITE,
        args=args,
        trigger_time=0,
    )


@given(args=st.lists(_values(), max_size=3).map(tuple))
@settings(max_examples=150, deadline=None)
def test_request_roundtrip(args):
    frame = encode_binary_request(_request(args))
    decoded = decode_binary_request(frame[4:])
    assert decoded.args == args
    assert [type(a) for a in decoded.args] == [type(a) for a in args]
    assert decoded.op_id == OpId(7)
    assert decoded.client_id == ClientId(2)
    assert decoded.object_id == ObjectId(3)
    assert decoded.kind is OpKind.WRITE


@given(result=_values(), op_value=st.integers(min_value=0, max_value=2**70))
@settings(max_examples=150, deadline=None)
def test_response_roundtrip(result, op_value):
    frame = encode_binary_response(op_value, result)
    decoded = decode_binary_response(frame[4:])
    assert decoded == {"op": op_value, "result": result}
    assert type(decoded["result"]) is type(result)


def test_type_fidelity_pins():
    """The classic confusions, pinned explicitly."""
    for value, other in ((True, 1), (False, 0), (1, True), (0, False)):
        frame = encode_binary_response(0, value)
        decoded = decode_binary_response(frame[4:])["result"]
        assert decoded == value and type(decoded) is type(value), (
            f"{value!r} decoded as {decoded!r} (confusable with {other!r})"
        )
    tup = decode_binary_response(encode_binary_response(0, (1, 2))[4:])
    assert type(tup["result"]) is tuple
    lst = decode_binary_response(encode_binary_response(0, [1, 2])[4:])
    assert type(lst["result"]) is list
    big = -(2**200) + 17
    assert decode_binary_response(
        encode_binary_response(0, big)[4:]
    )["result"] == big


@given(args=st.lists(_values(max_leaves=8), max_size=2).map(tuple))
@settings(max_examples=40, deadline=None)
def test_no_truncation_decodes(args):
    """No strict prefix of a valid payload is accepted."""
    payload = encode_binary_request(_request(args))[4:]
    for cut in range(len(payload)):
        with pytest.raises(ValueError):
            decode_binary_request(payload[:cut])


def test_trailing_and_junk_rejected():
    payload = encode_binary_request(_request((1, "x")))[4:]
    with pytest.raises(ValueError):
        decode_binary_request(payload + b"\x00")
    with pytest.raises(ValueError):
        decode_binary_request(b"\xff" + payload[1:])  # bad frame kind
    with pytest.raises(ValueError):
        decode_binary_response(payload)  # request payload as response
    bad_tag = bytearray(encode_binary_response(1, None)[4:])
    bad_tag[-1] = 0x7F  # unknown value tag
    with pytest.raises(ValueError):
        decode_binary_response(bytes(bad_tag))
    with pytest.raises(TypeError):
        encode_binary_response(1, object())
    with pytest.raises(TypeError):
        encode_binary_response(1, {1: "non-string key"})


def _read_all_frames(codec, data):
    """Drive codec.read_frame over a fed StreamReader synchronously."""

    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        while True:
            frame = await codec.read_frame(reader)
            if frame is None:
                return frames
            frames.append(frame)

    return asyncio.run(_run())


def test_framing_splits_pipelined_stream():
    """Many frames in one byte blob split exactly, for both codecs."""
    ops = [_request((index, f"v{index}")) for index in range(5)]
    for codec in (BinaryWireCodec, JsonWireCodec):
        blob = b"".join(codec.encode_request(op) for op in ops)
        frames = _read_all_frames(codec, blob)
        assert len(frames) == len(ops)
        # read_frame hands back exactly what decode_request expects:
        # the line for json, the length-stripped payload for binary.
        for frame, op in zip(frames, ops):
            assert codec.decode_request(frame).args == op.args


def test_oversized_length_prefix_rejected_before_allocation():
    huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(ValueError):
        _read_all_frames(BinaryWireCodec, huge)


def test_mid_frame_eof_raises():
    frame = encode_binary_response(3, "abc")
    with pytest.raises(asyncio.IncompleteReadError):
        _read_all_frames(BinaryWireCodec, frame[: len(frame) - 1])
    with pytest.raises(asyncio.IncompleteReadError):
        _read_all_frames(BinaryWireCodec, frame[:2])  # inside the header


def _fields(op):
    return (op.op_id, op.client_id, op.object_id, op.kind, op.args)


def _leg(codec, leg):
    """One leg of a recorded connection: its byte stream (five frames of
    mixed sizes, back to back), its segment decoder (ops compared by
    their fields) and what ``read_frame`` plus the per-frame decoder
    make of the stream."""
    values = [0, "v", ("a", 1, None), TSVal(ts=3, wid=1, val="x" * 40), []]
    if leg == "request":
        blob = b"".join(
            codec.encode_request(_request((index, value)))
            for index, value in enumerate(values)
        )

        def decode(data):
            ops, tail = codec.decode_requests(data)
            return [_fields(op) for op in ops], tail

        expected = [
            _fields(codec.decode_request(frame))
            for frame in _read_all_frames(codec, blob)
        ]
    else:
        blob = b"".join(
            codec.encode_response(index, value)
            for index, value in enumerate(values)
        )
        decode = codec.decode_responses
        expected = [
            (response["op"], response["result"])
            for response in map(
                codec.decode_response, _read_all_frames(codec, blob)
            )
        ]
    return blob, decode, expected


def _decode_segments(decode, segments):
    """Feed TCP segments the way the protocols' data_received does."""
    items, tail = [], b""
    for segment in segments:
        decoded, tail = decode(tail + segment)
        items.extend(decoded)
    return items, tail


@pytest.mark.parametrize("codec", [BinaryWireCodec, JsonWireCodec])
class TestSplitFrames:
    """On either leg, the segment decoder yields exactly what read_frame
    and the per-frame decoder yield, however TCP cuts the stream into
    segments."""

    LEGS = ("request", "response")

    def test_every_chunking_yields_the_read_frame_frames(self, codec):
        for leg in self.LEGS:
            blob, decode, expected = _leg(codec, leg)
            assert len(expected) == 5
            chunkings = [[blob], [blob[i : i + 1] for i in range(len(blob))]]
            chunkings += [
                [blob[:cut], blob[cut:]] for cut in range(len(blob) + 1)
            ]
            for segments in chunkings:
                assert _decode_segments(decode, segments) == (expected, b"")

    def test_truncated_tail_stays_buffered_until_completed(self, codec):
        for leg in self.LEGS:
            blob, decode, expected = _leg(codec, leg)
            items, tail = decode(blob[:-3])
            assert items == expected[:-1]
            assert tail and blob.endswith(tail + blob[-3:])
            assert decode(tail + blob[-3:]) == (expected[-1:], b"")

    def test_empty_segment_yields_nothing(self, codec):
        for leg in self.LEGS:
            assert _leg(codec, leg)[1](b"") == ([], b"")

    def test_oversized_frame_rejected_before_its_body_is_buffered(self, codec):
        if codec is BinaryWireCodec:
            # the four prefix bytes are enough: no body has arrived yet
            oversized = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        else:
            oversized = b"x" * (MAX_FRAME_BYTES + 1)  # no newline in sight
        for leg in self.LEGS:
            blob, decode, _ = _leg(codec, leg)
            with pytest.raises(ValueError):
                decode(oversized)
            with pytest.raises(ValueError):
                decode(blob + oversized)


def test_get_codec():
    assert get_codec("json") is JsonWireCodec
    assert get_codec("binary") is BinaryWireCodec
    with pytest.raises(ValueError):
        get_codec("msgpack")


def test_codecs_agree_on_recorded_cluster_session():
    """Golden equivalence: one seeded WSRegister run, every leg, both
    codecs decode to the same operations and results."""
    from repro.core.ws_register import WSRegisterEmulation
    from repro.sim.scheduling import RandomScheduler

    emu = WSRegisterEmulation(2, 5, 2, scheduler=RandomScheduler(42))
    writers = [emu.add_writer(index) for index in range(2)]
    reader = emu.add_reader()
    for round_index in range(3):
        for writer in writers:
            writer.enqueue("write", f"value-{round_index}")
        reader.enqueue("read")
    result = emu.system.run_to_quiescence()
    assert result.satisfied
    ops = list(emu.kernel.ops.values())
    assert len(ops) > 20, "session too small to be a meaningful golden"
    for op in ops:
        via_json = JsonWireCodec.decode_request(
            JsonWireCodec.encode_request(op)
        )
        via_binary = BinaryWireCodec.decode_request(
            BinaryWireCodec.encode_request(op)[4:]
        )
        for field in ("op_id", "client_id", "object_id", "kind", "args"):
            assert getattr(via_json, field) == getattr(op, field)
            assert getattr(via_binary, field) == getattr(op, field)
        if op.respond_time is None:
            continue  # covering op: never responded, no result leg
        json_response = JsonWireCodec.decode_response(
            JsonWireCodec.encode_response(op.op_id.value, op.result)
        )
        binary_response = BinaryWireCodec.decode_response(
            BinaryWireCodec.encode_response(op.op_id.value, op.result)[4:]
        )
        assert json_response == binary_response
        assert json_response["result"] == op.result
