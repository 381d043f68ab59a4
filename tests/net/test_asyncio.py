"""AsyncioTransport: unchanged protocols over real localhost sockets."""

import threading
import time

import pytest

from repro.consistency.linearizability import is_linearizable
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.specs import MaxRegisterSpec, RegisterSpec
from repro.consistency.ws import check_ws_regular
from repro.core.emulation import EmulationSpec
from repro.net import TransportConfig
from repro.net.asyncio_transport import AsyncioTransport, snapshot_placements
from repro.net.wire import (
    decode_binary_requests,
    decode_binary_responses,
    encode_binary_request,
    encode_binary_response,
)
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.values import TSVal

from tests.net.test_lossy import SCENARIOS


class TestWireCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            0,
            3.5,
            "text",
            (1, "a", None),
            TSVal(ts=3, wid=1, val="payload"),
            [TSVal(ts=0, wid=0, val=None), (1, 2)],
            {"nested": {"tuple": (1, (2, 3))}},
            (),
        ],
    )
    def test_value_roundtrip(self, value):
        frame = encode_binary_response(0, value)
        ((_, decoded),), tail = decode_binary_responses(frame)
        assert tail == b""
        assert decoded == value
        assert type(decoded) is type(value)

    def test_codec_is_closed(self):
        for value in ({1, 2}, object(), {0: "non-string key"}):
            with pytest.raises(TypeError):
                encode_binary_response(0, value)

    def test_request_roundtrip(self):
        op = LowLevelOp(
            op_id=OpId(7),
            client_id=ClientId(2),
            object_id=ObjectId(3),
            kind=OpKind.WRITE_MAX,
            args=(TSVal(ts=1, wid=0, val="v"),),
            trigger_time=99,
        )
        (decoded,), tail = decode_binary_requests(encode_binary_request(op))
        assert tail == b""
        assert decoded.op_id == op.op_id
        assert decoded.client_id == op.client_id
        assert decoded.object_id == op.object_id
        assert decoded.kind == op.kind
        assert decoded.args == op.args
        assert decoded.trigger_time == 0  # timing stays client-side

    def test_response_roundtrip(self):
        frame = encode_binary_response(11, TSVal(ts=2, wid=1, val=(1, 2)))
        assert decode_binary_responses(frame) == (
            [(11, TSVal(ts=2, wid=1, val=(1, 2)))],
            b"",
        )


class TestPlacementSnapshot:
    def test_snapshot_covers_every_server(self):
        spec = EmulationSpec.make("abd", n=3, f=1, seed=0)
        emulation = spec.build()
        placements = snapshot_placements(emulation.kernel.object_map)
        assert sorted(placements) == [0, 1, 2]
        for replicas in placements.values():
            assert replicas, "every ABD server hosts at least one replica"
            for _, type_name, _ in replicas:
                assert type_name == "max-register"


class TestAddressValidation:
    def test_partial_address_list_is_rejected_at_bind(self):
        # one address for three servers: an op routed to s1 or s2 would
        # have no connection and the run would stall silently, so bind()
        # must refuse before any socket is opened.
        spec = EmulationSpec.make(
            "abd", n=3, f=1, seed=0,
            transport=TransportConfig.asyncio(("127.0.0.1:9999",)),
        )
        from repro.errors import InvalidConfig

        with pytest.raises(InvalidConfig, match="1 address"):
            spec.build()


def run_cluster(algorithm, seed=0, rounds=2):
    params, write_op, read_op, value_kind, _ = SCENARIOS[algorithm]
    spec = EmulationSpec.make(
        algorithm,
        seed=seed,
        transport=TransportConfig.asyncio(),
        **params,
    )
    emulation = spec.build()
    transport = emulation.kernel.transport
    assert isinstance(transport, AsyncioTransport)
    try:
        writer = emulation.add_writer(0)
        reader = emulation.add_reader()
        for round_index in range(rounds):
            value = (
                round_index + 1
                if value_kind == "int"
                else f"v{round_index}"
            )
            writer.enqueue(write_op, value)
            reader.enqueue(read_op)
            result = emulation.system.run_to_quiescence(max_steps=50_000)
            assert result.satisfied, (
                f"{algorithm} round {round_index} stalled on sockets:"
                f" {result}"
            )
    finally:
        transport.close()
    return emulation, transport


class TestCluster:
    # the ids name the wire format the runs speak
    @pytest.mark.parametrize(
        "algorithm",
        sorted(SCENARIOS),
        ids=[f"{name}-binary" for name in sorted(SCENARIOS)],
    )
    def test_every_algorithm_runs_over_sockets(self, algorithm):
        emulation, transport = run_cluster(algorithm)
        check = SCENARIOS[algorithm][4]
        history = emulation.history
        if check == "ws":
            assert check_ws_regular(history, cross_check=True) == []
        elif check == "atomic":
            assert is_register_history_atomic(history)
        else:
            assert is_linearizable(history.all_ops(), MaxRegisterSpec(0))
        served = sum(s.requests_served for s in transport.servers.values())
        assert served == len(emulation.kernel.ops)  # one round-trip per op

    def test_results_come_from_replicas_not_local_shadows(self):
        emulation, transport = run_cluster("abd", seed=4)
        assert transport.remote
        # the kernel-side shadow objects were never applied to: they still
        # hold their initial values, while the replicas advanced.
        object_map = emulation.kernel.object_map
        shadows = [
            object_map.object(server.object_ids[0])
            for server in object_map.servers
        ]
        assert all(s.value == s.initial_value for s in shadows)
        replicas = [
            replica
            for server in transport.servers.values()
            for replica in server.replicas.values()
        ]
        assert any(r.value != r.initial_value for r in replicas)

    def test_history_is_linearizable_end_to_end(self):
        emulation, _ = run_cluster("abd", seed=1, rounds=3)
        assert is_linearizable(
            emulation.history.all_ops(), RegisterSpec(None)
        )

    def test_close_is_idempotent_and_restartable_state_is_cleared(self):
        _, transport = run_cluster("abd")
        transport.close()  # second close is a no-op
        assert transport._loop is None
        assert not transport._started


class _AbdCluster:
    """ABD (n=3, f=1) over self-hosted sockets, one writer
    and one reader, driven a write+read round at a time.

    Every round reaches a quorum, so a passing run never waits the idle
    timeout out; it only bounds how long a round may go without a reply.
    Keep it well above a scheduling or GC pause of the test process: a
    short one turns such a pause into a round that ends "quiescent"."""

    def __init__(self, seed, idle_timeout=5.0):
        spec = EmulationSpec.make(
            "abd", n=3, f=1, seed=seed,
            transport=TransportConfig.asyncio(),
        )
        self.emulation = spec.build()
        self.transport = self.emulation.kernel.transport
        self.transport.idle_timeout = idle_timeout
        self.writer = self.emulation.add_writer(0)
        self.reader = self.emulation.add_reader()
        self.rounds = 0

    def round(self):
        self.writer.enqueue("write", f"v{self.rounds}")
        self.reader.enqueue("read")
        self.rounds += 1
        result = self.emulation.system.run_to_quiescence(max_steps=50_000)
        assert result.satisfied, result

    def rounds_until(self, done, what):
        """Keep the traffic (and with it the event loop) going until
        ``done()``: redial timers only advance inside operations."""
        deadline = time.monotonic() + 10
        while not done():
            assert time.monotonic() < deadline, what
            self.round()


class TestOneThread:
    """The event loop runs on the caller's thread, inside the calls."""

    def test_no_thread_is_started_at_any_point(self):
        before = threading.active_count()
        cluster = _AbdCluster(seed=2)
        transport = cluster.transport
        try:
            transport.start()
            assert threading.active_count() == before
            seen = set()
            waits = transport.flush_idle

            def flush_idle():  # called from inside the kernel's run loop
                seen.add(threading.active_count())
                progressed = waits()
                seen.add(threading.active_count())
                return progressed

            transport.flush_idle = flush_idle
            cluster.round()
            transport.crash_replica(2)
            transport.restart_replica(2)
            seen.add(threading.active_count())
        finally:
            transport.close()
        assert seen == {before}
        assert threading.active_count() == before

    def test_closed_transport_can_be_reused_and_its_replicas_restarted(self):
        # close() used to leave _closing set and a stale ready-event
        # behind: the lazy restart raced its own start-up and the link
        # supervisor refused to redial for the rest of its life.
        cluster = _AbdCluster(seed=3)
        transport = cluster.transport
        try:
            cluster.round()
            transport.close()
            cluster.round()  # lazy start()
            assert transport._started
            transport.crash_replica(2)
            cluster.round()  # quorum of s0, s1
            assert transport.dropped_frames > 0
            transport.restart_replica(2)
            served = transport.servers[2].requests_served
            cluster.rounds_until(
                lambda: transport.servers[2].requests_served > served,
                "link never redialed",
            )
        finally:
            transport.close()
        assert is_linearizable(
            cluster.emulation.history.all_ops(), RegisterSpec(None)
        )


def _count_writes(socket_transport):
    """Shadow ``write`` on one asyncio socket transport; returns the log."""
    writes = []
    inner = socket_transport.write

    def write(data):
        writes.append(data)
        inner(data)

    socket_transport.write = write
    return writes


class TestCoalescing:
    """Everything triggered between two idle points is one write a side."""

    BURST = 7

    def _single_server(self, idle_timeout):
        spec = EmulationSpec.make(
            "single-cas", seed=0,
            transport=TransportConfig.asyncio(),
        )
        kernel = spec.build().kernel
        kernel.transport.idle_timeout = idle_timeout
        kernel.transport.start()
        return kernel, kernel.transport

    def _trigger(self, kernel, count):
        return [
            kernel.trigger(
                ClientId(0), ObjectId(0), OpKind.CAS, (index, index + 1), None
            )
            for index in range(count)
        ]

    def test_a_burst_is_one_write_each_way(self):
        kernel, transport = self._single_server(idle_timeout=5.0)
        try:
            (server,) = transport.servers.values()
            # the accepted connection exists once the loop has run: one
            # warm-up op brings it up before the writes are counted.
            warm_up = self._trigger(kernel, 1)
            assert transport.flush_idle()
            client_writes = _count_writes(transport._links[0].transport)
            (accepted,) = server.connections
            replica_writes = _count_writes(accepted)
            burst = self._trigger(kernel, self.BURST)
            assert not client_writes  # only queued so far
            assert not any(map(transport.request_arrived, burst))
            assert transport.flush_idle()
            assert len(client_writes) == 1
            assert len(replica_writes) == 1
            assert server.requests_served == 1 + self.BURST
            assert all(map(transport.request_arrived, warm_up + burst))
        finally:
            transport.close()

    def test_blackholed_burst_is_held_until_heal(self):
        kernel, transport = self._single_server(idle_timeout=0.2)
        try:
            (server,) = transport.servers.values()
            transport.set_blackhole([0])
            burst = self._trigger(kernel, self.BURST)
            start = time.monotonic()
            assert transport.flush_idle() is False
            waited = time.monotonic() - start
            assert 0.15 <= waited < 2.0
            assert server.requests_served == 0
            assert not any(map(transport.request_arrived, burst))
            assert transport.held_frames == self.BURST
            transport.set_blackhole(())
            # a request queued after the heal leaves behind the held ones
            later = self._trigger(kernel, 1)
            transport.idle_timeout = 5.0
            assert transport.flush_idle()
            assert server.requests_served == self.BURST + 1
            # cas(i, i + 1) from 0 succeeds only in op-id order
            assert [transport.result_for(op) for op in burst + later] == list(
                range(self.BURST + 1)
            )
            assert transport.dropped_frames == 0
        finally:
            transport.close()


class TestReceiveBuffer:
    """Both ends of a connection read into one buffer they reuse."""

    def test_every_read_lands_in_the_same_buffer(self):
        cluster = _AbdCluster(seed=5)
        transport = cluster.transport
        try:
            cluster.round()  # every connection is up
            link = transport._links[0]
            (accepted,) = transport.servers[0].connections
            handed_out = {"link": [], "replica": []}
            for side, protocol in (
                ("link", link),
                ("replica", accepted.get_protocol()),
            ):
                get_buffer = protocol.get_buffer

                def recording(sizehint, get_buffer=get_buffer, side=side):
                    buffer = get_buffer(sizehint)
                    handed_out[side].append(buffer)
                    return buffer

                protocol.get_buffer = recording
            for _ in range(4):
                cluster.round()
        finally:
            transport.close()
        for side, buffers in handed_out.items():
            assert len(buffers) >= 4, side
            assert all(buffer is buffers[0] for buffer in buffers), side
        assert handed_out["link"][0] is not handed_out["replica"][0]

    def test_a_frame_larger_than_the_buffer_round_trips(self):
        from repro.net.asyncio_transport import _RECV_BUFFER_BYTES

        value = "x" * (200 * 1024)
        assert len(value) > _RECV_BUFFER_BYTES
        spec = EmulationSpec.make(
            "abd", n=3, f=1, seed=1,
            transport=TransportConfig.asyncio(),
        )
        emulation = spec.build()
        transport = emulation.kernel.transport
        try:
            writer = emulation.add_writer(0)
            reader = emulation.add_reader()
            writer.enqueue("write", value)
            assert emulation.system.run_to_quiescence().satisfied
            reader.enqueue("read")
            assert emulation.system.run_to_quiescence().satisfied
        finally:
            transport.close()
        (read,) = emulation.history.reads
        assert read.result == value
        assert transport.decode_errors == 0


class TestFailuresAreLoud:
    """Nothing on the socket path is swallowed: a malformed response is
    counted before its link is dropped, and a failure inside the event
    loop is re-raised to the caller instead of timing out in silence."""

    def test_malformed_response_is_counted_and_the_link_redialed(self):
        cluster = _AbdCluster(seed=6)
        transport = cluster.transport
        try:
            cluster.round()
            link = transport._links[1]
            link.data_received(b"\x00\x00\x00\x01\x7f")  # not a response
            assert transport.decode_errors == 1
            assert transport.describe()["decode_errors"] == 1
            cluster.rounds_until(
                lambda: transport._links[1] is not link
                and 1 not in transport._down,
                "link never redialed",
            )
        finally:
            transport.close()

    def test_flush_idle_reraises_a_failure_inside_the_loop(self):
        cluster = _AbdCluster(seed=6, idle_timeout=5.0)

        class ReplicaBug(Exception):
            pass

        def apply(kind, args):
            raise ReplicaBug(kind, args)

        try:
            cluster.round()
            # a replica whose apply raises is a bug, not a fault the
            # protocol tolerates: the run must not wait it out.  (A
            # request the replica cannot apply is the peer's fault; see
            # tests/net/test_wire_errors.py.)
            for replica in cluster.transport.servers[0].replicas.values():
                replica._apply = apply
            start = time.monotonic()
            with pytest.raises(ReplicaBug):
                cluster.round()
            assert time.monotonic() - start < 2.0
        finally:
            cluster.transport.close()

    def test_an_unencodable_request_raises_once_and_nothing_is_resent(self):
        cluster = _AbdCluster(seed=6)
        transport = cluster.transport
        kernel = cluster.emulation.kernel
        try:
            cluster.round()
            writes = _count_writes(transport._links[0].transport)
            # server 0's segment is encoded and written before server 1's
            # fails to encode
            good = kernel.trigger(
                ClientId(0), ObjectId(0), OpKind.READ_MAX, (), None
            )
            kernel.trigger(
                ClientId(0), ObjectId(1), OpKind.WRITE_MAX, (object(),), None
            )
            with pytest.raises(TypeError):
                transport.flush_idle()
            assert len(writes) == 1
            deadline = time.monotonic() + 5
            while not transport.request_arrived(good):
                assert time.monotonic() < deadline, "no answer to server 0"
                transport.flush_idle()  # raises nothing: the outbox is gone
            assert len(writes) == 1
        finally:
            transport.close()

    def test_misuse_and_start_up_failure_raise_typed_errors(self):
        from repro.errors import TransportUnavailable

        transport = _AbdCluster(seed=0).transport
        try:
            with pytest.raises(TransportUnavailable):
                transport.restart_replica(0)  # not crashed
        finally:
            transport.close()
        # nobody listens on port 1: start-up fails, typed and chained
        spec = EmulationSpec.make(
            "single-cas", seed=0,
            transport=TransportConfig.asyncio(("127.0.0.1:1",)),
        )
        transport = spec.build().kernel.transport
        with pytest.raises(TransportUnavailable) as failure:
            transport.start()
        assert isinstance(failure.value.__cause__, OSError)
        assert transport._loop is None  # and nothing is left open
