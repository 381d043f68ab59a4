"""The decoders' error contract: a bad frame is a ``WireDecodeError``.

The socket protocols catch exactly ``WireDecodeError``: a replica cuts
the peer off, a client counts ``decode_errors`` and redials.  Anything
else escaping a decoder reaches the event loop's exception handler and
fails the whole run, so invalid UTF-8 and over-deep nesting — which
Python reports as ``UnicodeDecodeError`` / ``RecursionError`` — must
come out of all four decode entry points wrapped.
"""

import socket
import struct

import pytest

from repro.errors import WireDecodeError
from repro.net.wire import MAX_FRAME_BYTES, BinaryWireCodec
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.values import TSVal

from tests.net.test_asyncio import _AbdCluster
from tests.net.test_wire_binary import _read_all_frames

DEPTH = 100_000

#: response op 5, a one-byte string that is not UTF-8
BAD_UTF8_RESPONSE = bytes.fromhex("02 05 05 01 ff")
#: response op 5, a dict whose one key is not UTF-8
BAD_UTF8_KEY_RESPONSE = bytes.fromhex("02 05 09 01 01 ff 00")
#: response op 5, a list nested DEPTH deep
DEEP_RESPONSE = bytes.fromhex("02 05") + b"\x07\x01" * DEPTH + b"\x00"
#: request op 7 from client 2 to object 3, write_max, args not UTF-8
BAD_UTF8_REQUEST = bytes.fromhex("01 07 02 03 03 08 01 05 01 ff")
#: the same request with its args tuple nested DEPTH deep
DEEP_REQUEST = bytes.fromhex("01 07 02 03 03") + b"\x08\x01" * DEPTH + b"\x00"


BAD_FRAMES = [
    (BinaryWireCodec.decode_response, BAD_UTF8_RESPONSE),
    (BinaryWireCodec.decode_response, BAD_UTF8_KEY_RESPONSE),
    (BinaryWireCodec.decode_response, DEEP_RESPONSE),
    (BinaryWireCodec.decode_request, BAD_UTF8_REQUEST),
    (BinaryWireCodec.decode_request, DEEP_REQUEST),
]


@pytest.mark.parametrize(
    "decode, frame",
    BAD_FRAMES,
    ids=[
        "binary-response-utf8",
        "binary-response-dict-key-utf8",
        "binary-response-deep",
        "binary-request-utf8",
        "binary-request-deep",
    ],
)
def test_malformed_frames_raise_wire_decode_error(decode, frame):
    with pytest.raises(WireDecodeError) as failure:
        decode(frame)
    assert not isinstance(failure.value, UnicodeDecodeError)


def test_typed_raises():
    huge = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(WireDecodeError):
        _read_all_frames(BinaryWireCodec, huge)


def _frame(payload):
    return struct.pack(">I", len(payload)) + payload


@pytest.mark.parametrize(
    "payload", [BAD_UTF8_RESPONSE, DEEP_RESPONSE], ids=["utf8", "deep"]
)
def test_a_client_counts_a_bad_response_and_redials(payload):
    cluster = _AbdCluster(seed=8)
    transport = cluster.transport
    try:
        cluster.round()
        link = transport._links[1]
        link.data_received(_frame(payload))
        assert transport.decode_errors == 1
        cluster.rounds_until(
            lambda: transport._links[1] is not link
            and 1 not in transport._down,
            "link never redialed",
        )
    finally:
        transport.close()


def _closed_by_peer(sock):
    try:
        return sock.recv(1) == b""
    except BlockingIOError:
        return False


@pytest.mark.parametrize(
    "payload", [BAD_UTF8_REQUEST, DEEP_REQUEST], ids=["utf8", "deep"]
)
def test_a_replica_cuts_off_a_peer_sending_a_bad_request(payload):
    cluster = _AbdCluster(seed=9)
    transport = cluster.transport
    try:
        cluster.round()
        peer = socket.create_connection(("127.0.0.1", transport.ports[0]))
        try:
            peer.sendall(_frame(payload))
            peer.setblocking(False)
            # the replica reads the frame inside the next operation that
            # runs the loop; the run carries on while it drops the peer
            cluster.rounds_until(
                lambda: _closed_by_peer(peer), "bad peer never cut off"
            )
        finally:
            peer.close()
        cluster.round()
    finally:
        transport.close()
    assert transport.decode_errors == 0


def _request(op, object_index, kind, args):
    return BinaryWireCodec.encode_request(
        LowLevelOp(OpId(op), ClientId(7), ObjectId(object_index), kind, args, 0)
    )


def _read_until_closed(sock, received):
    """Append what ``sock`` has to ``received``; True once at EOF."""
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return True
            received += chunk
    except BlockingIOError:
        return False


@pytest.mark.parametrize("case", ["unknown-object", "unsupported-kind"])
def test_a_replica_cuts_off_a_peer_whose_request_it_cannot_apply(case):
    """A well-framed request the replica cannot apply (an object it does
    not host, a ``cas`` on a max-register) is the peer's fault: the
    replica answers the frames before it, cuts the peer off and the run
    carries on."""
    cluster = _AbdCluster(seed=10)
    transport = cluster.transport
    received = bytearray()
    try:
        cluster.round()
        (hosted,) = transport.servers[0].replicas
        if case == "unknown-object":
            bad = _request(1001, 99, OpKind.READ_MAX, ())
        else:
            bad = _request(1001, hosted, OpKind.CAS, (None, 1))
        peer = socket.create_connection(("127.0.0.1", transport.ports[0]))
        try:
            peer.sendall(
                _request(1000, hosted, OpKind.READ_MAX, ())
                + bad
                + _request(1002, hosted, OpKind.READ_MAX, ())
            )
            peer.setblocking(False)
            cluster.rounds_until(
                lambda: _read_until_closed(peer, received),
                "peer never cut off",
            )
        finally:
            peer.close()
        cluster.round()
    finally:
        transport.close()
    answers, tail = BinaryWireCodec.decode_responses(bytes(received))
    answered = [op for op, _ in answers]
    assert answered == [1000] and tail == b""
    assert transport.decode_errors == 0


def test_a_replica_answers_what_precedes_an_undecodable_frame():
    """Good, undecodable, good in one TCP segment: the first request is
    applied and answered, the peer is cut off, and the third request is
    neither applied nor answered."""
    cluster = _AbdCluster(seed=11)
    transport = cluster.transport
    received = bytearray()
    try:
        cluster.round()
        server = transport.servers[0]
        (hosted,) = server.replicas
        replica = server.replicas[hosted]
        applied = []
        apply = replica._apply

        def recording_apply(kind, args):
            # the peer's requests: writes by writer id 7 whose payload
            # is their op id (timestamp 0 leaves the register as it is)
            if args and args[0].wid == 7:
                applied.append(args[0].val)
            return apply(kind, args)

        replica._apply = recording_apply
        peer = socket.create_connection(("127.0.0.1", transport.ports[0]))
        try:
            peer.sendall(
                _request(1000, hosted, OpKind.WRITE_MAX, (TSVal(0, 7, 1000),))
                + _frame(BAD_UTF8_REQUEST)
                + _request(
                    1002, hosted, OpKind.WRITE_MAX, (TSVal(0, 7, 1002),)
                )
            )
            peer.setblocking(False)
            cluster.rounds_until(
                lambda: _read_until_closed(peer, received),
                "peer never cut off",
            )
        finally:
            peer.close()
        cluster.round()
    finally:
        transport.close()
    answers, tail = BinaryWireCodec.decode_responses(bytes(received))
    answered = [op for op, _ in answers]
    assert answered == [1000] and tail == b""
    assert applied == [1000]
    assert transport.decode_errors == 0


def test_a_client_delivers_the_response_before_a_malformed_one():
    """A good response and a malformed one in one TCP segment: the good
    one still reaches ``kernel.arrive``; then the link is dropped,
    counted and redialed."""
    cluster = _AbdCluster(seed=12)
    transport = cluster.transport
    kernel = cluster.emulation.kernel
    try:
        cluster.round()
        arrived = []
        arrive = kernel.arrive

        def recording_arrive(op_id):
            arrived.append(int(op_id))
            arrive(op_id)

        kernel.arrive = recording_arrive
        link = transport._links[1]
        link.data_received(
            BinaryWireCodec.encode_response(10**6, "ok")
            + _frame(BAD_UTF8_RESPONSE)
        )
        assert transport.decode_errors == 1
        transport.pump()
        assert arrived == [10**6]
        cluster.rounds_until(
            lambda: transport._links[1] is not link
            and 1 not in transport._down,
            "link never redialed",
        )
    finally:
        transport.close()
