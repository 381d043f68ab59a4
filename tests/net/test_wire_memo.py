"""The socket path codes each timestamped value once per round trip.

Three memos let the wire functions reuse work on values that several
frames carry: a flush's ``packed`` memo (``encode_binary_requests``), a
replica's ``answered`` table (``serve_binary_requests``) and a flush's
``parsed`` memo (``decode_binary_responses``).  Each must change
nothing but the work done: the same bytes, tails, replica states and
decoded values as without it, and never one list shared by two answers.
The census at the end counts the packs and parses one KV get costs over
self-hosted sockets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.shard import ShardCluster, ShardServiceConfig
from repro.errors import WireDecodeError
from repro.net import wire
from repro.net.wire import (
    decode_binary_responses,
    encode_binary_requests,
    encode_binary_responses,
    serve_binary_requests,
)
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind, make_object
from repro.sim.values import TSVal, bottom_tsval

from tests.net.test_wire_binary import _values
from tests.net.test_wire_oracle import _same

#: object index -> base object type of the replicas a stream runs on.
_TYPES = {0: "register", 1: "max-register", 2: "cas"}


def _op(op_value, object_index, kind, args):
    return LowLevelOp(
        OpId(op_value), ClientId(1), ObjectId(object_index), kind, args, 0
    )


#: small stamps, so writes tie, CAS expectations hit and max-register
#: writes both win and lose.
_payloads = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
)
_tsvals = st.builds(
    TSVal,
    ts=st.integers(0, 3),
    wid=st.integers(-1, 2),
    val=_payloads,
)


@st.composite
def _request(draw):
    object_index = draw(st.sampled_from(sorted(_TYPES)))
    type_name = _TYPES[object_index]
    if type_name == "cas":
        return object_index, OpKind.CAS, (draw(_tsvals), draw(_tsvals))
    read = draw(st.booleans())
    if type_name == "register":
        return (
            (object_index, OpKind.READ, ())
            if read
            else (object_index, OpKind.WRITE, (draw(_tsvals),))
        )
    return (
        (object_index, OpKind.READ_MAX, ())
        if read
        else (object_index, OpKind.WRITE_MAX, (draw(_tsvals),))
    )


#: a stream step: a batch of requests split over two reads at a drawn
#: cut, or an in-place change to the list payload an object holds.
_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("serve"),
            st.lists(_request(), min_size=1, max_size=6),
            st.integers(0, 10**6),
        ),
        st.tuples(
            st.just("mutate"), st.sampled_from(sorted(_TYPES)), st.integers(0, 9)
        ),
    ),
    max_size=12,
)


def _replicas():
    return {
        index: make_object(type_name, ObjectId(index), bottom_tsval())
        for index, type_name in _TYPES.items()
    }


@given(_steps)
@settings(max_examples=150, deadline=None)
def test_serving_through_the_answer_table_changes_nothing(steps):
    plain, cached, answered = _replicas(), _replicas(), {}
    tails = {"plain": b"", "cached": b""}
    op_value = 0
    for step in steps:
        if step[0] == "mutate":
            _, index, item = step
            for replicas in (plain, cached):
                payload = replicas[index].value.val
                if isinstance(payload, list):
                    payload.append(item)
            continue
        _, requests, cut = step
        ops = []
        for object_index, kind, args in requests:
            ops.append(_op(op_value, object_index, kind, args))
            op_value += 1
        data = encode_binary_requests(ops)
        cut %= len(data) + 1
        for chunk in (data[:cut], data[cut:]):
            want = serve_binary_requests(tails["plain"] + chunk, plain)
            got = serve_binary_requests(
                tails["cached"] + chunk, cached, answered
            )
            assert bytes(got[0]) == bytes(want[0])
            assert got[1:] == want[1:]
            tails["plain"], tails["cached"] = want[1], got[1]
        for index in _TYPES:
            assert _same(cached[index].value, plain[index].value)
    assert len(answered) <= len(_TYPES)


@given(
    st.lists(
        st.one_of(
            _tsvals,
            st.builds(TSVal, ts=_values(4), wid=_values(4), val=_values(6)),
        ),
        min_size=1,
        max_size=5,
    ),
    st.lists(
        st.lists(st.lists(st.integers(0, 9), max_size=3), max_size=5),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=150, deadline=None)
def test_a_flush_memo_spanning_segments_encodes_each_as_alone(pool, segments):
    # Segments drawn from one pool of values share many of them, as the
    # segments of one ABD write do; each op carries one or two values.
    packed = {}
    op_value = 0
    for picks in segments:
        ops = []
        for pick in picks:
            args = tuple(pool[i % len(pool)] for i in pick[:2])
            ops.append(_op(op_value, 0, OpKind.WRITE, args))
            op_value += 1
        assert encode_binary_requests(ops, packed) == encode_binary_requests(ops)


def _outcome(data, parsed=None):
    """What decoding ``data`` gives: the pairs and tail, or the error
    class and what decoded before it."""
    try:
        return "ok", decode_binary_responses(data, parsed)
    except WireDecodeError as error:
        return type(error), (error.decoded, b"")


@given(
    st.lists(
        st.lists(st.one_of(_tsvals, _values(6)), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=2),
)
@settings(max_examples=150, deadline=None)
def test_decoding_through_a_flush_memo_changes_nothing(reads, flips):
    # The answers of one flush, one read per server: the same values
    # recur across reads.  A flipped byte makes some reads malformed.
    parsed = {}
    for number, results in enumerate(reads):
        data = bytearray(encode_binary_responses(enumerate(results)))
        for at, byte in flips if number % 2 else ():
            data[at % len(data)] = byte
        want = _outcome(bytes(data))
        got = _outcome(bytes(data), parsed)
        assert got[0] == want[0]
        assert _same(got[1], want[1])


def test_an_answer_with_trailing_bytes_is_refused_every_time():
    frame = encode_binary_responses([(0, TSVal(1, 1, "v"))])
    length = int.from_bytes(frame[:4], "big") + 1
    data = length.to_bytes(4, "big") + frame[4:] + b"\x00"
    parsed = {}
    for _ in range(2):
        assert _outcome(data, parsed)[0] is WireDecodeError
    assert not parsed


def test_equal_list_payload_answers_decode_to_distinct_lists():
    value = TSVal(4, 1, ["a", "b"])
    data = encode_binary_responses([(0, value), (1, value)])
    parsed = {}
    (_, first), (_, second) = decode_binary_responses(data, parsed)[0]
    ((_, third),), _ = decode_binary_responses(
        encode_binary_responses([(2, value)]), parsed
    )
    assert first.val == second.val == third.val == ["a", "b"]
    assert first.val is not second.val and third.val is not first.val
    assert not parsed


def test_equal_answers_of_one_flush_share_one_value():
    value = TSVal(4, 1, "v")
    parsed = {}
    answers = [
        decode_binary_responses(encode_binary_responses([(0, value)]), parsed)
        for _ in range(3)
    ]
    results = [pairs[0][1] for pairs, _ in answers]
    assert all(result is results[0] for result in results)
    assert _same(results[0], value)


def test_a_get_of_an_unchanged_key_packs_once_and_parses_n_plus_one(
    monkeypatch,
):
    # A max-register ABD get is a read-max round and a write-back round
    # to all n servers: without the memos that is 2n packs and 2n parses
    # of the key's one value.
    n, gets = 4, 30
    config = ShardServiceConfig.make(
        shards=1, substrate="max-register", n=n, f=1, capacity=16, seed=0
    )
    counts = {"packs": 0, "parses": 0}
    pack, unpack = wire._pack_tsval, wire._unpack_tsval

    def counted_pack(*args):
        counts["packs"] += 1
        return pack(*args)

    def counted_unpack(*args):
        counts["parses"] += 1
        return unpack(*args)

    with ShardCluster(config, "asyncio", idle_timeout=0.02) as cluster:
        with cluster.service.session(writer=0) as session:
            session.put("key", "value")
            for _ in range(3):  # every replica answers the value once
                session.get("key")
            monkeypatch.setattr(wire, "_pack_tsval", counted_pack)
            monkeypatch.setattr(wire, "_unpack_tsval", counted_unpack)
            for _ in range(gets):
                assert session.get("key") == "value"
    assert counts["packs"] <= gets
    assert counts["parses"] <= gets * (n + 1)
