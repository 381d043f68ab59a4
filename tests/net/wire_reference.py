"""The binary wire codec as it stood before its fast path: a test oracle.

A verbatim copy of the straightforward encoder and decoder
(``isinstance`` dispatch, a loop per varint, a frame assembled by
concatenation) that ``repro.net.wire`` replaced with a faster one.  The
wire format is a contract with external ``repro serve`` peers, so
``tests/net/test_wire_oracle.py`` holds the production codec to this one
byte for byte.  Do not optimise it: it is the reference, like
``tests/conftest.py::reference_run`` is for ``Kernel.run``.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Tuple

from repro.errors import WireDecodeError
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.values import TSVal

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
_KIND_TO_CODE = {kind: code for code, kind in enumerate(OpKind)}
_CODE_TO_KIND = {code: kind for kind, code in _KIND_TO_CODE.items()}

#: refuse frames above this size — a corrupt or hostile length prefix
#: must not make the reader allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN_STRUCT = struct.Struct(">I")
_F64_STRUCT = struct.Struct(">d")


def _pack_varint(value: int, out: bytearray) -> None:
    """Unsigned LEB128 (7 bits per byte, high bit = continuation)."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _unpack_varint(buf: bytes, pos: int) -> "Tuple[int, int]":
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise WireDecodeError("truncated varint on the wire")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _pack_value(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        # bools are handled above; OpId (an int subclass) encodes as its
        # plain value.  Zigzag keeps small negatives short and LEB128
        # carries arbitrary precision.
        out.append(_T_INT)
        value = int(value)
        _pack_varint(
            (value << 1) if value >= 0 else ((-value << 1) - 1), out
        )
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
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        raw, pos = _unpack_varint(buf, pos)
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos
    if tag == _T_FLOAT:
        end = pos + 8
        if end > len(buf):
            raise WireDecodeError("truncated float on the wire")
        return _F64_STRUCT.unpack_from(buf, pos)[0], end
    if tag == _T_STR or tag == _T_BYTES:
        length, pos = _unpack_varint(buf, pos)
        end = pos + length
        if end > len(buf):
            raise WireDecodeError("truncated string on the wire")
        raw = bytes(buf[pos:end])
        return (raw.decode("utf-8") if tag == _T_STR else raw), end
    if tag == _T_LIST or tag == _T_TUPLE:
        count, pos = _unpack_varint(buf, pos)
        items = []
        for _ in range(count):
            item, pos = _unpack_value(buf, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        count, pos = _unpack_varint(buf, pos)
        result: "Dict[str, Any]" = {}
        for _ in range(count):
            length, pos = _unpack_varint(buf, pos)
            end = pos + length
            if end > len(buf):
                raise WireDecodeError("truncated dict key on the wire")
            key = bytes(buf[pos:end]).decode("utf-8")
            item, pos = _unpack_value(buf, end)
            result[key] = item
        return result, pos
    if tag == _T_TSVAL:
        ts, pos = _unpack_value(buf, pos)
        wid, pos = _unpack_value(buf, pos)
        val, pos = _unpack_value(buf, pos)
        return TSVal(ts=ts, wid=wid, val=val), pos
    raise WireDecodeError(f"unknown wire tag 0x{tag:02x}")


def _frame(payload: bytearray) -> bytes:
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(
            f"frame of {len(payload)} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte wire limit"
        )
    return _LEN_STRUCT.pack(len(payload)) + bytes(payload)


def encode_binary_request(op: "LowLevelOp") -> bytes:
    payload = bytearray((_FRAME_REQUEST,))
    _pack_varint(int(op.op_id.value), payload)
    _pack_varint(op.client_id.index, payload)
    _pack_varint(op.object_id.index, payload)
    payload.append(_KIND_TO_CODE[op.kind])
    _pack_value(op.args, payload)
    return _frame(payload)


def decode_binary_request(payload: bytes) -> "LowLevelOp":
    """Rebuild the operation on the server side (binary framing)."""
    if not payload or payload[0] != _FRAME_REQUEST:
        raise WireDecodeError("not a binary request frame")
    op_value, pos = _unpack_varint(payload, 1)
    client_index, pos = _unpack_varint(payload, pos)
    object_index, pos = _unpack_varint(payload, pos)
    if pos >= len(payload):
        raise WireDecodeError("truncated request frame on the wire")
    kind = _CODE_TO_KIND.get(payload[pos])
    if kind is None:
        raise WireDecodeError(f"unknown op-kind code {payload[pos]}")
    args, pos = _unpack_value(payload, pos + 1)
    if pos != len(payload):
        raise WireDecodeError(f"{len(payload) - pos} trailing bytes in frame")
    if not isinstance(args, tuple):
        raise WireDecodeError("request args must decode as a tuple")
    return LowLevelOp(
        op_id=OpId(op_value),
        client_id=ClientId(client_index),
        object_id=ObjectId(object_index),
        kind=kind,
        args=args,
        trigger_time=0,
    )


def encode_binary_response(op_value: int, result: Any) -> bytes:
    payload = bytearray((_FRAME_RESPONSE,))
    _pack_varint(int(op_value), payload)
    _pack_value(result, payload)
    return _frame(payload)


def decode_binary_response(payload: bytes) -> "Dict[str, Any]":
    if not payload or payload[0] != _FRAME_RESPONSE:
        raise WireDecodeError("not a binary response frame")
    op_value, pos = _unpack_varint(payload, 1)
    result, pos = _unpack_value(payload, pos)
    if pos != len(payload):
        raise WireDecodeError(f"{len(payload) - pos} trailing bytes in frame")
    return {"op": op_value, "result": result}
