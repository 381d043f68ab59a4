"""The wire format of the asyncio transport.

Requests and responses cross a socket as length-prefixed
struct-packed frames with one-byte interned type tags and msgpack-style
value encoding (LEB128 varints, zigzag signed ints of arbitrary
precision, UTF-8 strings, raw bytes, recursive containers).  The framing
supports pipelining: any number of frames can sit in one TCP segment and
be split without scanning for delimiters.  See ``docs/API.md`` ("Wire
format") for the exact frame layout.  ``tests/net/test_wire_oracle.py``
holds it to the plain codec it replaced, byte for byte.

Frames are coded at two grains.  The segment functions code every
frame of one outbox flush or TCP read per call:
``encode_binary_requests(ops)`` and ``encode_binary_responses(pairs)``
return every frame back to back; ``decode_binary_requests(data)`` and
``decode_binary_responses(data)`` return every complete frame of
``data`` decoded (ops, or ``(op, result)`` pairs) and the truncated tail
to prepend to the next read.  The client end of a socket calls
``encode_binary_requests`` and ``decode_binary_responses``; the replica
end calls ``serve_binary_requests(data, replicas)``, which answers a
read in one pass: it parses every complete request frame to its fields
(no ``LowLevelOp`` is built), applies each with ``replica._apply(kind,
args)`` and packs the response frames into one ``bytearray``, returning
``(answers, tail, served, malformed)`` — the same bytes, tail and
replica states as decode, ``BaseObject.apply``, encode.  Each is one
loop over the frames that packs and parses the shapes the registry
protocols ship (args ``()``, ``(TSVal,)``, ``(TSVal, TSVal)``; results
``TSVal``, ``"ok"`` / ``"ack"``, ``None``) inline, and hands any other
value to the general tagged packer and parser.  There is one request
parser (``_parse_request_fields``), one response parser and one writer
per frame kind, shared by the segment functions and the serve path;
the decoders share one walk over the length prefixes
(``_decode_frames``).  On a malformed frame the decoders
raise :class:`~repro.errors.WireDecodeError` with ``decoded`` set to the
frames before it, which the socket protocols still apply or deliver;
an oversized length prefix refuses the whole read.  The per-frame
functions (``encode_binary_request`` / ``decode_binary_request`` /
``encode_binary_response`` / ``decode_binary_response``) are the
one-frame case of the same code.

A ``TSVal`` is immutable, and one round of ABD ships one value to every
server and gets n mostly equal answers back, so the socket path codes
such a value once per round trip instead of once per server.  Three
optional trailing arguments carry the memos: ``encode_binary_requests(
ops, packed)`` copies the bytes of a value that an earlier segment of
the same flush packed (keyed by ``(ts, wid, val)``);
``serve_binary_requests(data, replicas, answered)`` copies the bytes of
the value an object last answered when ``_apply`` returns that same
object (one entry per hosted object, kept by the replica server); and
``decode_binary_responses(data, parsed)`` builds one ``TSVal`` for equal
answers of one flush (keyed by the value's raw bytes), which the
responses then share.  Only a ``TSVal`` with int ``ts`` and ``wid``
and a ``str`` or ``None`` payload is memoised (:func:`_reusable`); a
list or dict payload may change in place and is coded every time.  The
bytes on the wire are the same with or without the memos.

:class:`BinaryWireCodec` bundles the eight functions with
``read_frame``, which reads one frame from an ``asyncio``
``StreamReader``; the segment decoders are tested against it.

The format is deliberately closed: an unencodable value is an error,
not a silent ``str()`` — a protocol that started shipping richer values
over the wire should extend the format, not corrupt comparisons.
Malformed input is rejected loudly and with one exception class:
truncated frames, trailing bytes, oversized lengths, unknown tags,
invalid UTF-8 and over-deep nesting all raise
:class:`~repro.errors.WireDecodeError` instead of yielding partial
values — the one error the socket protocols catch to drop a bad peer
without failing the run.

The lookup of a codec by name at the end of this module, and
:class:`JsonEncodeReference`, the JSON frames the sockets once spoke
(encode only, kept as a cost reference), serve the end-to-end benchmark
harness (``benchmarks/e2e``) and nothing else.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import InvalidConfig, WireDecodeError
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import BaseObject, LowLevelOp, OpKind
from repro.sim.values import TSVal


# -- binary codec -----------------------------------------------------------
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
# by key, a canonical form.

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
#: filled in once the frame is packed, then the frame kind.  Frames are
#: packed in place, one after another in the buffer of their segment.
_REQUEST_HEAD = bytes((0, 0, 0, 0, _FRAME_REQUEST))
_RESPONSE_HEAD = bytes((0, 0, 0, 0, _FRAME_RESPONSE))

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


def _pack_str(value: str, out: bytearray) -> None:
    encoded = value.encode("utf-8")
    out.append(_T_STR)
    _pack_varint(len(encoded), out)
    out += encoded


def _pack_tsval(value: TSVal, out: bytearray) -> None:
    """The tag, then ``ts``, ``wid`` and ``val`` as values.

    Int timestamps (zigzag varints, written inline) and a ``str`` or
    ``None`` payload, every ``TSVal`` the registry protocols build, are
    packed here; anything else takes :func:`_pack_value`, to the same
    bytes.
    """
    append = out.append
    append(_T_TSVAL)
    ts, wid, val = value.ts, value.wid, value.val
    if type(ts) is int and type(wid) is int:
        for number in (ts, wid):
            append(_T_INT)
            number = (number << 1) if number >= 0 else ((-number << 1) - 1)
            while number >= 0x80:
                append((number & 0x7F) | 0x80)
                number >>= 7
            append(number)
    else:
        _pack_value(ts, out)
        _pack_value(wid, out)
    if type(val) is str:
        _pack_str(val, out)
    elif val is None:
        append(_T_NONE)
    else:
        _pack_value(val, out)


def _reusable(value: TSVal) -> bool:
    """True for a ``TSVal`` whose bytes stand for it as long as it
    lives: int ``ts`` and ``wid`` and a ``str`` or ``None`` payload, the
    shapes :func:`_pack_tsval` and :func:`_unpack_tsval` code inline.
    Any other payload (a list, say) can change in place, so it is packed
    and parsed every time."""
    val = value.val
    return (
        type(value.ts) is int
        and type(value.wid) is int
        and (val is None or type(val) is str)
    )


def _pack_value(value: Any, out: bytearray) -> None:
    kind = type(value)
    # Exact types first, for the shapes the protocols ship; the
    # isinstance chain below takes bools, subclasses (OpId, named
    # tuples), floats, bytes, lists and dicts.
    if kind is str:
        _pack_str(value, out)
    elif kind is TSVal:
        _pack_tsval(value, out)
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
        _pack_str(value, out)
    elif isinstance(value, bytes):
        out.append(_T_BYTES)
        _pack_varint(len(value), out)
        out += value
    elif isinstance(value, TSVal):
        _pack_tsval(value, out)
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


def _unpack_tsval(buf: bytes, pos: int) -> "Tuple[TSVal, int]":
    """The body of a ``TSVal`` whose tag ends at ``pos``.

    Int components and a ``str`` or ``None`` payload are parsed here
    with the varints inline; anything else takes :func:`_unpack_value`.
    A read past the end of ``buf`` raises ``IndexError``: the segment
    decoders report it as a malformed frame.
    """
    stamp = []
    for _ in range(2):
        if buf[pos] != _T_INT:
            value, pos = _unpack_value(buf, pos)
            stamp.append(value)
            continue
        raw = buf[pos + 1]
        pos += 2
        if raw >= 0x80:
            raw &= 0x7F
            shift = 7
            while buf[pos] >= 0x80:
                raw |= (buf[pos] & 0x7F) << shift
                pos += 1
                shift += 7
            raw |= buf[pos] << shift
            pos += 1
        stamp.append((raw >> 1) if not raw & 1 else -((raw + 1) >> 1))
    tag = buf[pos]
    if tag == _T_STR and buf[pos + 1] < 0x80:
        end = pos + 2 + buf[pos + 1]
        if end > len(buf):
            raise WireDecodeError("truncated string on the wire")
        val = buf[pos + 2 : end].decode("utf-8")
        pos = end
    elif tag == _T_NONE:
        val = None
        pos += 1
    else:
        val, pos = _unpack_value(buf, pos)
    return TSVal(stamp[0], stamp[1], val), pos


def _unpack_value(buf: bytes, pos: int) -> "Tuple[Any, int]":
    if pos >= len(buf):
        raise WireDecodeError("truncated value on the wire")
    tag = buf[pos]
    pos += 1
    # in traffic order: ABD ships timestamps, ints and strings
    if tag == _T_TSVAL:
        return _unpack_tsval(buf, pos)
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


# -- binary segments --------------------------------------------------------
#
# The socket path codes one segment per call: every frame of one outbox
# flush, or every complete frame of one TCP read.  Each segment function
# is one loop over its frames that packs and parses the shapes the
# registry protocols ship (args ``()``, ``(TSVal,)``, ``(TSVal, TSVal)``;
# results ``TSVal``, ``"ok"`` / ``"ack"``, ``None``) inline and hands
# anything else to ``_pack_value`` / ``_unpack_value``.  Their varints
# are written out rather than passed to ``_pack_varint`` /
# ``_unpack_varint``: op ids, client ids and timestamps run to two or
# three bytes, and a call per varint cost ``kv_sock_read`` about 7% of
# its saturated throughput (5 alternating pairs, 2-vCPU VM).  The
# decoders and the replica's serve path share one walk over the length
# prefixes, ``_decode_frames``, with one body parser per frame kind
# (``_parse_request_fields`` / ``_parse_response``); the response
# encoder and the serve path share one response writer,
# ``_write_response``.  The per-frame functions below are the one-frame
# case of the same code, so the layout has one writer and one parser
# per frame kind.


def _frame(out: bytearray, start: int = 0) -> None:
    """Fill in the reserved length prefix of the frame packed at ``start``."""
    size = len(out) - start - 4
    if size > MAX_FRAME_BYTES:
        raise InvalidConfig(
            f"frame of {size} bytes exceeds the"
            f" {MAX_FRAME_BYTES}-byte wire limit"
        )
    _LEN_STRUCT.pack_into(out, start, size)


def _oversized(length: int) -> WireDecodeError:
    return WireDecodeError(
        f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte wire limit"
    )


def _decode_frames(
    data: bytes, kind: int, what: str, parse, memo: "Optional[dict]" = None
) -> "Tuple[list, bytes]":
    """Every complete ``kind`` frame of ``data`` parsed, and the
    truncated tail to prepend to the next read.

    ``parse(data, pos, end, memo)`` reads one frame body from ``pos``
    (just past the frame-kind byte) to the frame's ``end`` and returns
    its item and where it stopped, which must be ``end``; ``memo`` is
    the caller's, passed through (see :func:`decode_binary_responses`).
    A malformed frame raises :class:`WireDecodeError` whose ``decoded``
    lists the items of the frames before it.  A length prefix above :data:`MAX_FRAME_BYTES`
    refuses the whole read as soon as its four bytes are in, before any
    of the body is buffered.
    """
    if type(data) is not bytes:
        data = bytes(data)  # slices of a bytes value stay bytes
    items: "list" = []
    unpack_length = _LEN_STRUCT.unpack_from
    pos, size = 0, len(data)
    while size - pos >= 4:
        (length,) = unpack_length(data, pos)
        if length > MAX_FRAME_BYTES:
            raise _oversized(length)
        end = pos + 4 + length
        if end > size:
            break
        try:
            if not length or data[pos + 4] != kind:
                raise WireDecodeError(f"not a binary {what} frame")
            item, stop = parse(data, pos + 5, end, memo)
            if stop > end:
                raise WireDecodeError(f"truncated {what} frame on the wire")
            if stop < end:
                raise WireDecodeError(f"{end - stop} trailing bytes in frame")
        except WireDecodeError as error:
            error.decoded = items
            raise
        except (IndexError, UnicodeDecodeError, RecursionError) as error:
            failure = WireDecodeError(f"malformed {what} frame: {error!r}")
            failure.decoded = items
            raise failure from error
        items.append(item)
        pos = end
    return items, data[pos:]


def encode_binary_requests(
    ops: "Iterable[LowLevelOp]", packed: "Optional[dict]" = None
) -> bytes:
    """Every op's request frame, back to back: one outbox flush.

    ``packed``, when given, is a memo of ``TSVal`` argument bytes keyed
    by ``(ts, wid, val)``, shared by the segments of one flush: a
    value that several segments carry (a write sent to every server) is
    packed once and its bytes copied into each frame.  Only the shapes
    :func:`_reusable` admits are memoised.  The bytes are the same as
    without it.
    """
    out = bytearray()
    append = out.append
    kind_code = _KIND_TO_CODE
    for op in ops:
        start = len(out)
        out += _REQUEST_HEAD
        for value in (op.op_id, op.client_id.index, op.object_id.index):
            if value < 0:
                raise InvalidConfig(f"varint cannot encode negative {value}")
            while value >= 0x80:
                append((value & 0x7F) | 0x80)
                value >>= 7
            append(value)
        append(kind_code[op.kind._value_])
        args = op.args
        if type(args) is tuple and len(args) < 0x80:
            append(_T_TUPLE)
            append(len(args))
            for item in args:
                if type(item) is not TSVal:
                    _pack_value(item, out)
                    continue
                if packed is None or not _reusable(item):
                    _pack_tsval(item, out)
                    continue
                key = (item.ts, item.wid, item.val)
                raw = packed.get(key)
                if raw is None:
                    mark = len(out)
                    _pack_tsval(item, out)
                    packed[key] = out[mark:]
                else:
                    out += raw
        else:
            _pack_value(args, out)
        _frame(out, start)
    return bytes(out)


def _parse_request_fields(
    data: bytes, p: int, end: int = 0, memo: Any = None
) -> "Tuple[tuple, int]":
    """One request body's fields: ``(op id, client index, object index,
    OpKind, args)`` as plain values, and where the body stopped.
    ``end`` and ``memo`` are unused (the response parser's)."""
    ids = []
    for _ in range(3):
        value = data[p]
        p += 1
        if value >= 0x80:
            value &= 0x7F
            shift = 7
            byte = data[p]
            while byte >= 0x80:
                value |= (byte & 0x7F) << shift
                p += 1
                shift += 7
                byte = data[p]
            value |= byte << shift
            p += 1
        ids.append(value)
    op_value, client_index, object_index = ids
    kind = _CODE_TO_KIND.get(data[p])
    if kind is None:
        raise WireDecodeError(f"unknown op-kind code {data[p]}")
    p += 1
    if data[p] == _T_TUPLE and data[p + 1] < 0x80:
        count = data[p + 1]
        p += 2
        items = []
        for _ in range(count):
            if data[p] == _T_TSVAL:
                item, p = _unpack_tsval(data, p + 1)
            else:
                item, p = _unpack_value(data, p)
            items.append(item)
        args = tuple(items)
    else:
        args, p = _unpack_value(data, p)
        if not isinstance(args, tuple):
            raise WireDecodeError("request args must decode as a tuple")
    return (op_value, client_index, object_index, kind, args), p


def _parse_request(
    data: bytes, p: int, end: int, memo: Any
) -> "Tuple[LowLevelOp, int]":
    (op_value, client_index, object_index, kind, args), p = (
        _parse_request_fields(data, p)
    )
    op = LowLevelOp(
        OpId(op_value),
        ClientId(client_index),
        ObjectId(object_index),
        kind,
        args,
        0,  # trigger time: the client-side kernel keeps the timing
    )
    return op, p


def decode_binary_requests(data: bytes) -> "Tuple[List[LowLevelOp], bytes]":
    """Every complete request frame of ``data`` decoded, and the
    truncated tail; failures as :func:`_decode_frames`."""
    return _decode_frames(data, _FRAME_REQUEST, "request", _parse_request)


def _write_response(
    out: bytearray, value: int, result: Any, raw: "Optional[bytes]" = None
) -> int:
    """Pack the response frame of op ``value`` answering ``result`` at
    the end of ``out``, and return where the result's bytes start.
    ``raw``, when given, is ``result`` already packed: it is copied."""
    start = len(out)
    out += _RESPONSE_HEAD
    append = out.append
    if value < 0:
        raise InvalidConfig(f"varint cannot encode negative {value}")
    while value >= 0x80:
        append((value & 0x7F) | 0x80)
        value >>= 7
    append(value)
    mark = len(out)
    kind = type(result)
    if raw is not None:
        out += raw
    elif kind is TSVal:
        _pack_tsval(result, out)
    elif kind is str:
        _pack_str(result, out)
    elif result is None:
        append(_T_NONE)
    else:
        _pack_value(result, out)
    _frame(out, start)
    return mark


def encode_binary_responses(pairs: "Iterable[Tuple[int, Any]]") -> bytes:
    """Every ``(op, result)`` pair's response frame, back to back."""
    out = bytearray()
    for value, result in pairs:
        _write_response(out, value, result)
    return bytes(out)


def serve_binary_requests(
    data: bytes,
    replicas: "Dict[int, BaseObject]",
    answered: "Optional[Dict[int, Tuple[TSVal, bytes]]]" = None,
) -> "Tuple[bytearray, bytes, int, bool]":
    """A replica's answer to one TCP read, in one pass: ``(answers,
    tail, served, malformed)``.

    ``replicas`` maps object indices to the base objects hosted.  Every
    complete request frame of ``data`` is parsed first (an oversized
    length prefix refuses the whole read, as :func:`_decode_frames`
    does, so nothing is applied), then each request is applied with
    ``replica._apply(kind, args)`` in frame order and its response frame
    packed into ``answers``.  ``served`` counts the requests applied and
    ``tail`` is the truncated frame to prepend to the next read.
    ``malformed`` is set by a frame that does not parse, or that names
    an object not in ``replicas`` or a kind the object does not
    support: the requests before it are applied and answered, none
    after it, and ``tail`` is empty, for the peer is to be cut off.  The
    same as :func:`decode_binary_requests`, ``BaseObject.apply`` on each
    op, then :func:`encode_binary_responses`, without building an op.

    ``answered``, when given, maps an object index to the last ``TSVal``
    that object answered and its packed bytes (one entry per hosted
    object; the caller keeps it across reads).  A result that *is* that
    value is answered with a copy of its bytes; any other ``TSVal`` is
    packed, and recorded if :func:`_reusable`.  The answers are the same
    bytes as without it.
    """
    malformed = False
    try:
        requests, tail = _decode_frames(
            data, _FRAME_REQUEST, "request", _parse_request_fields
        )
    except WireDecodeError as error:
        requests, tail, malformed = error.decoded, b"", True
    answers = bytearray()
    served = 0
    for op_value, _, object_index, kind, args in requests:
        replica = replicas.get(object_index)
        if replica is None or kind not in replica.SUPPORTED:
            # well framed, but not a request this replica can apply:
            # the peer is as broken as one sending junk.
            tail, malformed = b"", True
            break
        result = replica._apply(kind, args)
        if answered is None or type(result) is not TSVal:
            _write_response(answers, op_value, result)
        else:
            last = answered.get(object_index)
            if last is not None and last[0] is result:
                _write_response(answers, op_value, result, last[1])
            else:
                mark = _write_response(answers, op_value, result)
                if _reusable(result):
                    answered[object_index] = (result, answers[mark:])
        served += 1
    return answers, tail, served, malformed


def _parse_response(
    data: bytes, p: int, end: int = 0, parsed: "Optional[dict]" = None
) -> "Tuple[Tuple[int, Any], int]":
    op_value = data[p]
    p += 1
    if op_value >= 0x80:
        op_value &= 0x7F
        shift = 7
        while data[p] >= 0x80:
            op_value |= (data[p] & 0x7F) << shift
            p += 1
            shift += 7
        op_value |= data[p] << shift
        p += 1
    tag = data[p]
    if tag == _T_TSVAL:
        if parsed is None:
            result, p = _unpack_tsval(data, p + 1)
        else:
            # the result runs to the frame's end: its raw bytes are the key.
            raw = data[p:end]
            result = parsed.get(raw)
            if result is None:
                result, p = _unpack_tsval(data, p + 1)
                if p == end and _reusable(result):
                    parsed[raw] = result
            else:
                p = end
    elif tag == _T_STR and data[p + 1] < 0x80:
        stop = p + 2 + data[p + 1]
        if stop > len(data):
            raise WireDecodeError("truncated string on the wire")
        result, p = data[p + 2 : stop].decode("utf-8"), stop
    elif tag == _T_NONE:
        result, p = None, p + 1
    else:
        result, p = _unpack_value(data, p)
    return (op_value, result), p


def decode_binary_responses(
    data: bytes, parsed: "Optional[dict]" = None
) -> "Tuple[List[Tuple[int, Any]], bytes]":
    """Every complete response frame of ``data`` as an ``(op, result)``
    pair, and the truncated tail; failures as :func:`_decode_frames`.

    ``parsed``, when given, is a memo of ``TSVal`` results keyed by
    their raw bytes (tag to frame end), which the caller shares between
    the reads of one flush: equal answers from several servers are
    parsed once and share one ``TSVal``.  Only the shapes
    :func:`_reusable` admits are memoised, so a list payload is parsed
    into a fresh list every time.
    """
    return _decode_frames(
        data, _FRAME_RESPONSE, "response", _parse_response, parsed
    )


def _one_frame(payload: bytes) -> bytes:
    """A payload behind its length prefix: a segment of one frame."""
    return _LEN_STRUCT.pack(len(payload)) + payload


def encode_binary_request(op: "LowLevelOp") -> bytes:
    return encode_binary_requests((op,))


def decode_binary_request(payload: bytes) -> "LowLevelOp":
    """Rebuild the operation on the server side (binary framing)."""
    (op,), _ = decode_binary_requests(_one_frame(payload))
    return op


def encode_binary_response(op_value: int, result: Any) -> bytes:
    return encode_binary_responses(((int(op_value), result),))


def decode_binary_response(payload: bytes) -> "Dict[str, Any]":
    ((op_value, result),), _ = decode_binary_responses(_one_frame(payload))
    return {"op": op_value, "result": result}


# -- the codec object -------------------------------------------------------


class BinaryWireCodec:
    """Length-prefixed struct-packed framing (see module docstring)."""

    name = "binary"

    encode_request = staticmethod(encode_binary_request)
    decode_request = staticmethod(decode_binary_request)
    encode_response = staticmethod(encode_binary_response)
    decode_response = staticmethod(decode_binary_response)
    encode_requests = staticmethod(encode_binary_requests)
    decode_requests = staticmethod(decode_binary_requests)
    encode_responses = staticmethod(encode_binary_responses)
    decode_responses = staticmethod(decode_binary_responses)

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
            raise _oversized(length)
        return await reader.readexactly(length)


# -- the benchmark harness's surface ----------------------------------------

_TSVAL_TAG = "__tsval__"
_TUPLE_TAG = "__tuple__"


def _json_value(value: Any) -> Any:
    """One value in JSON-safe form (recursive, tagged)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, TSVal):
        return {_TSVAL_TAG: [value.ts, value.wid, _json_value(value.val)]}
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_json_value(item) for item in value]}
    if isinstance(value, list):
        return [_json_value(item) for item in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"non-string dict key on the wire: {key!r}")
            encoded[key] = _json_value(item)
        return encoded
    raise TypeError(f"cannot encode {type(value).__name__} for the wire")


class JsonEncodeReference:
    """Newline-delimited JSON frames, encode only: a cost reference.

    The frames the sockets spoke before the binary format, byte for
    byte.  The end-to-end benchmark harness (``benchmarks/e2e``) is the
    only caller: it times them next to :class:`BinaryWireCodec` as
    ``net.wire.json_encode_us_per_frame``.  Nothing decodes them.
    """

    name = "json"

    @staticmethod
    def encode_request(op: "LowLevelOp") -> bytes:
        frame = {
            "op": int(op.op_id.value),
            "client": op.client_id.index,
            "object": op.object_id.index,
            "kind": op.kind.value,
            "args": _json_value(list(op.args)),
        }
        return (json.dumps(frame, sort_keys=True) + "\n").encode("utf-8")

    @staticmethod
    def encode_response(op_value: int, result: Any) -> bytes:
        frame = {"op": int(op_value), "result": _json_value(result)}
        return (json.dumps(frame, sort_keys=True) + "\n").encode("utf-8")


def get_codec(name: str):
    """:class:`BinaryWireCodec` for ``"binary"``,
    :class:`JsonEncodeReference` for ``"json"``.

    The end-to-end benchmark harness (``benchmarks/e2e``) is the only
    caller; the socket path calls the binary segment functions directly.
    """
    for codec in (BinaryWireCodec, JsonEncodeReference):
        if codec.name == name:
            return codec
    raise InvalidConfig(
        f"unknown wire codec {name!r}; known: ['binary', 'json']"
    )
