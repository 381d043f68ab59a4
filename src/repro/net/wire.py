"""Wire codecs for the asyncio transport.

Two interchangeable codecs ship the request/response legs between a
kernel and its replica servers:

* :class:`JsonWireCodec` — newline-delimited JSON with tagged encodings
  for the two non-JSON value shapes the protocols put into base objects:
  tuples (argument lists must round-trip as tuples — ``LowLevelOp.args``
  is one, and CAS compares ``==`` on whatever it is handed) and
  :class:`~repro.sim.values.TSVal` timestamps.  Human-readable; one
  frame per line.
* :class:`BinaryWireCodec` — length-prefixed struct-packed frames with
  one-byte interned type tags and msgpack-style value encoding
  (LEB128 varints, zigzag signed ints of arbitrary precision, UTF-8
  strings, raw bytes, recursive containers).  Several times cheaper to
  encode and decode, and the framing supports pipelining: any number of
  frames can sit in one TCP segment and be split without scanning for
  delimiters.  See ``docs/API.md`` ("Wire format") for the exact frame
  layout.  Every frame of an operation pays the codec once, so the
  encoder takes the shapes the protocols ship (``str``, ``TSVal``,
  ``int``, ``tuple``, ``None``) by exact type before its general
  ``isinstance`` chain and the decoder tests tags in traffic order;
  ``tests/net/test_wire_oracle.py`` holds both to the plain codec they
  replaced, byte for byte.

Each codec frames its byte stream two ways: ``split_frames`` is the
synchronous splitter the socket protocols call once per TCP segment
(every complete frame, plus the truncated tail to prepend to the next
segment); ``read_frame`` reads one frame from an ``asyncio``
``StreamReader`` and is what the splitter is tested against.

Both codecs are deliberately closed: an unencodable value is an error,
not a silent ``str()`` — a protocol that started shipping richer values
over the wire should extend the codec, not corrupt comparisons.  Both
reject malformed input loudly and with one exception class: truncated
frames, trailing bytes, oversized lengths, unknown tags, invalid UTF-8
and over-deep nesting all raise :class:`~repro.errors.WireDecodeError`
instead of yielding partial values — the one error the socket
protocols catch to drop a bad peer without failing the run.

JSON request frame::

    {"op": 7, "client": 0, "object": 2, "kind": "write", "args": [...]}

JSON response frame::

    {"op": 7, "result": ...}

Binary frames carry the same fields; ``tests/net/test_wire_binary.py``
pins the cross-codec equivalence on recorded cluster sessions.
"""

from __future__ import annotations

import functools
import json
import struct
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InvalidConfig, WireDecodeError
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.values import TSVal

_TSVAL_TAG = "__tsval__"
_TUPLE_TAG = "__tuple__"


def encode_value(value: Any) -> Any:
    """Encode one value into JSON-safe form (recursive, tagged)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, TSVal):
        return {_TSVAL_TAG: [value.ts, value.wid, encode_value(value.val)]}
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"non-string dict key on the wire: {key!r}")
            encoded[key] = encode_value(item)
        return encoded
    raise TypeError(f"cannot encode {type(value).__name__} for the wire")


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        if _TSVAL_TAG in value:
            ts, wid, val = value[_TSVAL_TAG]
            return TSVal(ts=ts, wid=wid, val=decode_value(val))
        if _TUPLE_TAG in value:
            return tuple(decode_value(item) for item in value[_TUPLE_TAG])
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


def encode_request(op: "LowLevelOp") -> bytes:
    frame = {
        "op": int(op.op_id.value),
        "client": op.client_id.index,
        "object": op.object_id.index,
        "kind": op.kind.value,
        "args": encode_value(list(op.args)),
    }
    return (json.dumps(frame, sort_keys=True) + "\n").encode("utf-8")


def decode_request(line: bytes) -> "LowLevelOp":
    """Rebuild the operation on the server side.

    ``trigger_time`` is not meaningful across the wire and is set to 0;
    the authoritative timing lives in the client-side kernel.
    """
    try:
        frame = json.loads(line.decode("utf-8"))
        return LowLevelOp(
            op_id=OpId(frame["op"]),
            client_id=ClientId(frame["client"]),
            object_id=ObjectId(frame["object"]),
            kind=OpKind(frame["kind"]),
            args=tuple(decode_value(frame["args"])),
            trigger_time=0,
        )
    except (ValueError, KeyError, TypeError, RecursionError) as error:
        raise WireDecodeError(f"malformed request frame: {error}") from error


def encode_response(op_value: int, result: Any) -> bytes:
    frame = {"op": int(op_value), "result": encode_value(result)}
    return (json.dumps(frame, sort_keys=True) + "\n").encode("utf-8")


def decode_response(line: bytes) -> "Dict[str, Any]":
    try:
        frame = json.loads(line.decode("utf-8"))
        return {"op": frame["op"], "result": decode_value(frame["result"])}
    except (ValueError, KeyError, TypeError, RecursionError) as error:
        raise WireDecodeError(f"malformed response frame: {error}") from error


# -- binary codec ------------------------------------------------------------
#
# Frame:   u32 big-endian payload length | payload.
# Payload: frame-kind byte (0x01 request / 0x02 response) | body.
# Request body:  varint op | varint client | varint object |
#                u8 op-kind code | value (the args tuple).
# Response body: varint op | value (the result).
#
# Values are a one-byte type tag followed by the tag-specific encoding;
# varints are unsigned LEB128, signed ints ride zigzag-mapped LEB128
# (arbitrary precision — Python ints never truncate).  Dicts are sorted
# by key, mirroring the JSON codec's canonical form.

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_TSVAL = 0x0A

_FRAME_REQUEST = 0x01
_FRAME_RESPONSE = 0x02

#: interned op-kind codes (definition order of the enum; both ends of a
#: connection run this module, so the table is always in agreement).
#: Encode looks a kind up by its string value, not by the member:
#: ``Enum.__hash__`` is a Python-level call.
_KIND_TO_CODE = {kind.value: code for code, kind in enumerate(OpKind)}
_CODE_TO_KIND = dict(enumerate(OpKind))

#: refuse frames above this size — a corrupt or hostile length prefix
#: must not make the reader allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN_STRUCT = struct.Struct(">I")
_F64_STRUCT = struct.Struct(">d")

#: a frame's first five bytes: the length prefix, reserved here and
#: filled in by :func:`_frame` once the payload is packed, then the
#: frame kind.  The frame is built in place: one copy, not two.
_REQUEST_HEAD = bytes((0, 0, 0, 0, _FRAME_REQUEST))
_RESPONSE_HEAD = bytes((0, 0, 0, 0, _FRAME_RESPONSE))

#: ``ClientId`` / ``ObjectId`` of a decoded request.  Both are immutable
#: and carry their hash, so requests may share them; the bound keeps a
#: peer sending ever-new indices from growing the cache.
_client_id = functools.lru_cache(maxsize=4096)(ClientId)
_object_id = functools.lru_cache(maxsize=4096)(ObjectId)


def _pack_varint(value: int, out: bytearray) -> None:
    """Unsigned LEB128 (7 bits per byte, high bit = continuation)."""
    if 0 <= value < 0x80:
        out.append(value)  # one byte: small indices, lengths and counts
        return
    if value < 0:
        raise InvalidConfig(f"varint cannot encode negative {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _unpack_varint(buf: bytes, pos: int) -> "Tuple[int, int]":
    if pos >= len(buf):
        raise WireDecodeError("truncated varint on the wire")
    byte = buf[pos]
    if byte < 0x80:
        return byte, pos + 1
    result = byte & 0x7F
    shift = 7
    pos += 1
    while True:
        if pos >= len(buf):
            raise WireDecodeError("truncated varint on the wire")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _pack_int(value: int, out: bytearray) -> None:
    # Zigzag keeps small negatives short and LEB128 carries arbitrary
    # precision.
    out.append(_T_INT)
    _pack_varint((value << 1) if value >= 0 else ((-value << 1) - 1), out)


def _pack_value(value: Any, out: bytearray) -> None:
    kind = type(value)
    # Exact types first, for the shapes the protocols ship; the
    # isinstance chain below takes bools, subclasses (OpId, named
    # tuples), floats, bytes, lists and dicts.
    if kind is str:
        encoded = value.encode("utf-8")
        out.append(_T_STR)
        _pack_varint(len(encoded), out)
        out += encoded
    elif kind is TSVal:
        out.append(_T_TSVAL)
        ts, wid = value.ts, value.wid
        if type(ts) is int and type(wid) is int:
            _pack_int(ts, out)
            _pack_int(wid, out)
        else:
            _pack_value(ts, out)
            _pack_value(wid, out)
        _pack_value(value.val, out)
    elif kind is int:
        _pack_int(value, out)
    elif kind is tuple:
        out.append(_T_TUPLE)
        _pack_varint(len(value), out)
        for item in value:
            _pack_value(item, out)
    elif value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        # bools are handled above; OpId (an int subclass) encodes as its
        # plain value.
        _pack_int(int(value), out)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _F64_STRUCT.pack(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(_T_STR)
        _pack_varint(len(encoded), out)
        out += encoded
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        _pack_varint(len(value), out)
        out += value
    elif isinstance(value, TSVal):
        out.append(_T_TSVAL)
        _pack_value(value.ts, out)
        _pack_value(value.wid, out)
        _pack_value(value.val, out)
    elif isinstance(value, tuple):
        out.append(_T_TUPLE)
        _pack_varint(len(value), out)
        for item in value:
            _pack_value(item, out)
    elif isinstance(value, list):
        out.append(_T_LIST)
        _pack_varint(len(value), out)
        for item in value:
            _pack_value(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        _pack_varint(len(value), out)
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"non-string dict key on the wire: {key!r}")
            encoded = key.encode("utf-8")
            _pack_varint(len(encoded), out)
            out += encoded
            _pack_value(item, out)
    else:
        raise TypeError(f"cannot encode {type(value).__name__} for the wire")


def _unpack_value(buf: bytes, pos: int) -> "Tuple[Any, int]":
    if pos >= len(buf):
        raise WireDecodeError("truncated value on the wire")
    tag = buf[pos]
    pos += 1
    # in traffic order: ABD ships timestamps, ints and strings
    if tag == _T_TSVAL:
        ts, pos = _unpack_value(buf, pos)
        wid, pos = _unpack_value(buf, pos)
        val, pos = _unpack_value(buf, pos)
        return TSVal(ts, wid, val), pos
    if tag == _T_INT:
        raw, pos = _unpack_varint(buf, pos)
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos
    if tag == _T_STR or tag == _T_BYTES:
        length, pos = _unpack_varint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise WireDecodeError("truncated string on the wire")
        raw = buf[pos:end]
        return (raw.decode("utf-8") if tag == _T_STR else raw), end
    if tag == _T_TUPLE or tag == _T_LIST:
        count, pos = _unpack_varint(buf, pos)
        items = []
        for _ in range(count):
            item, pos = _unpack_value(buf, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FLOAT:
        end = pos + 8
        if end > len(buf):
            raise WireDecodeError("truncated float on the wire")
        return _F64_STRUCT.unpack_from(buf, pos)[0], end
    if tag == _T_DICT:
        count, pos = _unpack_varint(buf, pos)
        result: "Dict[str, Any]" = {}
        for _ in range(count):
            length, pos = _unpack_varint(buf, pos)
            end = pos + length
            if end > len(buf):
                raise WireDecodeError("truncated dict key on the wire")
            key = buf[pos:end].decode("utf-8")
            item, pos = _unpack_value(buf, end)
            result[key] = item
        return result, pos
    raise WireDecodeError(f"unknown wire tag 0x{tag:02x}")


def _frame(frame: bytearray) -> bytes:
    """Fill in the reserved length prefix of a packed frame."""
    size = len(frame) - 4
    if size > MAX_FRAME_BYTES:
        raise InvalidConfig(
            f"frame of {size} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte wire limit"
        )
    _LEN_STRUCT.pack_into(frame, 0, size)
    return bytes(frame)


def encode_binary_request(op: "LowLevelOp") -> bytes:
    frame = bytearray(_REQUEST_HEAD)
    _pack_varint(op.op_id, frame)
    _pack_varint(op.client_id.index, frame)
    _pack_varint(op.object_id.index, frame)
    frame.append(_KIND_TO_CODE[op.kind._value_])
    _pack_value(op.args, frame)
    return _frame(frame)


def decode_binary_request(payload: bytes) -> "LowLevelOp":
    """Rebuild the operation on the server side (binary framing)."""
    if type(payload) is not bytes:
        payload = bytes(payload)  # slices of a bytes value stay bytes
    if not payload or payload[0] != _FRAME_REQUEST:
        raise WireDecodeError("not a binary request frame")
    try:
        op_value, pos = _unpack_varint(payload, 1)
        client_index, pos = _unpack_varint(payload, pos)
        object_index, pos = _unpack_varint(payload, pos)
        if pos >= len(payload):
            raise WireDecodeError("truncated request frame on the wire")
        kind = _CODE_TO_KIND.get(payload[pos])
        if kind is None:
            raise WireDecodeError(f"unknown op-kind code {payload[pos]}")
        args, pos = _unpack_value(payload, pos + 1)
    except (UnicodeDecodeError, RecursionError) as error:
        raise WireDecodeError(f"malformed request frame: {error}") from error
    if pos != len(payload):
        raise WireDecodeError(f"{len(payload) - pos} trailing bytes in frame")
    if not isinstance(args, tuple):
        raise WireDecodeError("request args must decode as a tuple")
    return LowLevelOp(
        OpId(op_value),
        _client_id(client_index),
        _object_id(object_index),
        kind,
        args,
        0,  # trigger time: the client-side kernel keeps the timing
    )


def encode_binary_response(op_value: int, result: Any) -> bytes:
    frame = bytearray(_RESPONSE_HEAD)
    _pack_varint(int(op_value), frame)
    _pack_value(result, frame)
    return _frame(frame)


def decode_binary_response(payload: bytes) -> "Dict[str, Any]":
    if type(payload) is not bytes:
        payload = bytes(payload)
    if not payload or payload[0] != _FRAME_RESPONSE:
        raise WireDecodeError("not a binary response frame")
    try:
        op_value, pos = _unpack_varint(payload, 1)
        result, pos = _unpack_value(payload, pos)
    except (UnicodeDecodeError, RecursionError) as error:
        raise WireDecodeError(f"malformed response frame: {error}") from error
    if pos != len(payload):
        raise WireDecodeError(f"{len(payload) - pos} trailing bytes in frame")
    return {"op": op_value, "result": result}


# -- codec objects -----------------------------------------------------------


class JsonWireCodec:
    """Newline-delimited JSON framing (the original codec)."""

    name = "json"

    encode_request = staticmethod(encode_request)
    decode_request = staticmethod(decode_request)
    encode_response = staticmethod(encode_response)
    decode_response = staticmethod(decode_response)

    @staticmethod
    async def read_frame(reader) -> "Optional[bytes]":
        """One frame's bytes, or ``None`` on a clean EOF."""
        line = await reader.readline()
        return line if line else None

    @staticmethod
    def split_frames(data: bytes) -> "Tuple[List[bytes], bytes]":
        """Every complete line of ``data`` (newline kept, as
        :meth:`read_frame` yields them) and the unterminated tail.

        One cut at the last newline; the caller prepends the tail to the
        next TCP segment.  A tail above :data:`MAX_FRAME_BYTES` is
        rejected rather than buffered without bound.
        """
        cut = data.rfind(b"\n") + 1
        if len(data) - cut > MAX_FRAME_BYTES:
            raise WireDecodeError(
                f"unterminated line of {len(data) - cut} bytes exceeds"
                f" the {MAX_FRAME_BYTES}-byte wire limit"
            )
        if not cut:
            return [], data
        lines = [line + b"\n" for line in data[: cut - 1].split(b"\n")]
        return lines, data[cut:]


class BinaryWireCodec:
    """Length-prefixed struct-packed framing (see module docstring)."""

    name = "binary"

    encode_request = staticmethod(encode_binary_request)
    decode_request = staticmethod(decode_binary_request)
    encode_response = staticmethod(encode_binary_response)
    decode_response = staticmethod(decode_binary_response)

    @staticmethod
    async def read_frame(reader) -> "Optional[bytes]":
        """One frame's payload, or ``None`` on a clean EOF.

        A truncated header or body raises (``IncompleteReadError``): a
        peer that dies mid-frame is an error, not a clean shutdown.  A
        length above :data:`MAX_FRAME_BYTES` is rejected before any
        allocation happens.
        """
        import asyncio

        try:
            header = await reader.readexactly(4)
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean EOF on a frame boundary
            raise
        (length,) = _LEN_STRUCT.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise WireDecodeError(
                f"frame of {length} bytes exceeds the"
                f" {MAX_FRAME_BYTES}-byte wire limit"
            )
        return await reader.readexactly(length)

    @staticmethod
    def split_frames(data: bytes) -> "Tuple[List[bytes], bytes]":
        """Every complete frame's payload in ``data`` (as
        :meth:`read_frame` yields them) and the truncated tail.

        A walk over the length prefixes, no delimiter scan; the caller
        prepends the tail to the next TCP segment.  A prefix above
        :data:`MAX_FRAME_BYTES` is rejected as soon as its four bytes
        are in, before any of the body is buffered.
        """
        frames = []
        unpack_length = _LEN_STRUCT.unpack_from
        pos, size = 0, len(data)
        while size - pos >= 4:
            (length,) = unpack_length(data, pos)
            if length > MAX_FRAME_BYTES:
                raise WireDecodeError(
                    f"frame of {length} bytes exceeds the"
                    f" {MAX_FRAME_BYTES}-byte wire limit"
                )
            end = pos + 4 + length
            if end > size:
                break
            frames.append(data[pos + 4 : end])
            pos = end
        return frames, data[pos:]


#: codec registry for configs and the CLI.
CODECS = {
    JsonWireCodec.name: JsonWireCodec,
    BinaryWireCodec.name: BinaryWireCodec,
}


def get_codec(name: str):
    """Look up a codec by name (``"json"`` or ``"binary"``)."""
    try:
        return CODECS[name]
    except KeyError:
        raise InvalidConfig(
            f"unknown wire codec {name!r}; known: {sorted(CODECS)}"
        ) from None
