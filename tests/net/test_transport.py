"""The transport seam itself: kernel wiring, arrival, delivery, dedup."""

import pytest

from repro.net import InProcTransport, TransportConfig
from repro.net.transport import Transport
from repro.sim.client import ClientRuntime
from repro.sim.ids import ClientId, OpId
from repro.sim.system import build_system
from tests.conftest import ToyProtocol


def _toy_system(transport=None, n_servers=1, placements=None):
    system = build_system(
        n_servers, placements or [(0, "register", None)], transport=transport
    )
    runtime = system.add_client(ClientId(0), ToyProtocol())
    return system, runtime


class TestDefaultWiring:
    def test_kernel_defaults_to_inproc(self):
        system, _ = _toy_system()
        assert isinstance(system.kernel.transport, InProcTransport)
        assert system.kernel.transport.kernel is system.kernel

    def test_inproc_is_inactive_and_local(self):
        transport = InProcTransport()
        assert not transport.active
        assert not transport.remote

    def test_set_transport_before_run(self):
        system, _ = _toy_system()
        replacement = InProcTransport()
        system.kernel.set_transport(replacement)
        assert system.kernel.transport is replacement
        assert replacement.kernel is system.kernel

    def test_set_transport_refused_after_trigger(self):
        system, runtime = _toy_system()
        runtime.enqueue("write", "v")
        assert system.run_to_quiescence().satisfied
        with pytest.raises(RuntimeError, match="set_transport"):
            system.kernel.set_transport(InProcTransport())

    def test_config_roundtrip_builds_inproc(self):
        transport = TransportConfig.inproc().build()
        assert isinstance(transport, InProcTransport)
        # An active in-proc transport would make the run loop pump every
        # step: the configured path must cost what the default one does.
        assert not transport.active
        system, runtime = _toy_system(transport=transport)
        runtime.enqueue("write", "v")
        runtime.enqueue("read")
        assert system.run_to_quiescence().satisfied
        assert [op.result for op in system.history.all_ops()] == ["ack", "v"]

    def test_bare_lossy_config_normalizes_its_plan(self):
        from repro.net import FaultPlan

        # a directly constructed lossy config and the .lossy() constructor
        # describe the same transport, so they must be equal — otherwise
        # they would split into two result-cache cells.
        direct = TransportConfig(kind="lossy")
        built = TransportConfig.lossy()
        assert direct.plan == FaultPlan()
        assert direct == built
        assert direct.cache_payload() == built.cache_payload()


class _ManualTransport(Transport):
    """Holds requests until the test releases them (out of order)."""

    active = True
    remote = False

    def __init__(self):
        super().__init__()
        self.held = []
        self.arrived = set()

    def send_request(self, op):
        self.held.append(op.op_id)

    def request_arrived(self, op):
        return op.op_id in self.arrived

    def send_response(self, op):
        self._kernel.deliver(op)

    def release(self, op_id):
        self.held.remove(op_id)
        self.arrived.add(op_id)
        self._kernel.arrive(op_id)


class TestArrival:
    def test_out_of_order_arrival_restores_sorted_respond_actions(self):
        transport = _ManualTransport()
        system, runtime = _toy_system(transport=transport)
        kernel = system.kernel
        runtime.enqueue("write", "a")
        kernel.force_client_step(ClientId(0))  # invoke: triggers op0
        other = system.add_client(ClientId(1), ToyProtocol())
        other.enqueue("write", "b")
        kernel.force_client_step(ClientId(1))  # triggers op1
        assert [op_id for op_id in transport.held] == [OpId(0), OpId(1)]

        transport.release(OpId(1))  # later op arrives first
        transport.release(OpId(0))
        assert list(kernel._respond_actions) == [OpId(0), OpId(1)]
        kernel.check_incremental()  # incremental view matches the oracle

    def test_duplicate_and_stale_arrivals_are_noops(self):
        transport = _ManualTransport()
        system, runtime = _toy_system(transport=transport)
        kernel = system.kernel
        runtime.enqueue("write", "a")
        kernel.force_client_step(ClientId(0))
        transport.release(OpId(0))
        kernel.arrive(OpId(0))  # duplicate arrival
        assert list(kernel._respond_actions) == [OpId(0)]
        kernel.force_respond(OpId(0))
        kernel.arrive(OpId(0))  # stale arrival after the respond
        assert list(kernel._respond_actions) == []

    def test_oracle_excludes_unarrived_requests(self):
        transport = _ManualTransport()
        system, runtime = _toy_system(transport=transport)
        kernel = system.kernel
        runtime.enqueue("write", "a")
        kernel.force_client_step(ClientId(0))
        respond_ops = [
            action.op_id
            for action in kernel.enabled_actions()
            if action.op_id is not None
        ]
        assert respond_ops == []  # pending but not arrived: not respondable
        transport.release(OpId(0))
        respond_ops = [
            action.op_id
            for action in kernel.enabled_actions()
            if action.op_id is not None
        ]
        assert respond_ops == [OpId(0)]
        kernel.check_incremental()


class TestDuplicateResponses:
    def test_second_delivery_is_counted_and_dropped(self):
        class CountingProtocol(ToyProtocol):
            def __init__(self):
                super().__init__()
                self.deliveries = 0

            def on_response(self, ctx, op):
                self.deliveries += 1
                super().on_response(ctx, op)

        protocol = CountingProtocol()
        system = build_system(1, [(0, "register", None)])
        system.kernel.ops.record()
        runtime = system.add_client(ClientId(0), protocol)
        runtime.enqueue("write", "v")
        assert system.run_to_quiescence().satisfied
        (op,) = system.kernel.ops.values()
        assert protocol.deliveries == 1

        system.kernel.deliver(op)  # a duplicated response leg
        assert protocol.deliveries == 1  # handler not re-run
        assert runtime.duplicate_responses == 1


def _arrived(transport):
    """The ops a transport holds as arrived: the lossy transport's
    ``_arrived`` set, the socket transport's results table."""
    if hasattr(transport, "_arrived"):
        return transport._arrived
    return transport._results.keys()


class TestArrivedBookkeeping:
    """The arrived ops serve the ``enabled_actions`` oracle, which only
    asks about *pending* ops: a transport must forget an op when it
    responds (and a late duplicate must not bring it back), or the
    table grows by one int per low-level operation forever."""

    def _service(self, kind):
        from repro.apps.shard import ShardedKVService, ShardServiceConfig
        from repro.net import chaos_faults
        from repro.net.asyncio_transport import AsyncioTransport
        from repro.net.lossy import LossyTransport

        if kind == "lossy":
            # duplicates on both legs: stale copies land after responds
            plan = chaos_faults(
                drop=0.0, duplicate=0.3, reorder=0.3, max_delay=6
            )
            transport = LossyTransport(plan, seed=3)
        else:
            transport = AsyncioTransport(idle_timeout=0.05)
        config = ShardServiceConfig.make(
            shards=1, substrate="max-register", n=3, f=1, capacity=8, seed=5
        )
        return ShardedKVService(config, transports=[transport])

    @pytest.mark.parametrize("kind", ["lossy", "asyncio"])
    def test_arrived_never_outgrows_pending(self, kind):
        service = self._service(kind)
        try:
            (fleet,) = service.fleets
            kernel, transport = fleet.kernel, fleet.transport
            with service.session(writer=0) as session:
                for i in range(500):
                    if i % 2:
                        assert session.get(f"key-{i % 8 - 1}") == i - 1
                    else:
                        session.put(f"key-{i % 8}", i)
                    assert _arrived(transport) <= set(kernel.pending)
            assert len(_arrived(transport)) <= len(kernel.pending)
            assert len(kernel.ops) > 2000  # ... out of thousands sent
            if kind == "lossy":
                assert transport.counters["duplicate_requests"] > 0
            assert all(service.audit().values())
        finally:
            service.close()

    def test_oracle_still_agrees_under_lossy_duplicates(self):
        service = self._service("lossy")
        (fleet,) = service.fleets
        kernel = fleet.kernel
        with service.session(writer=0) as session:
            session.put("key", 0)
            session.submit_put("key", 1, token="a")
            session.submit_put("key", 2, token="b")
            session.submit_get("key", token="c")
            for _ in range(5_000):
                result = kernel.run(max_steps=1)
                kernel.check_incremental()
                if result.reason in ("quiescent", "blocked"):
                    break
        assert kernel.clients_quiescent()
        tokens = {token for token, *_ in service.drain_completions()}
        assert tokens == {"a", "b", "c"}
