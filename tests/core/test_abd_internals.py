"""White-box tests for the ABD client: phases, quorums, timestamps."""

import pytest

from repro.core.abd import ABDClient, ABDEmulation
from repro.sim.ids import ClientId, ObjectId
from repro.sim.objects import OpKind
from repro.sim.scheduling import ClientPriorityScheduler, RandomScheduler
from repro.sim.values import TSVal


class TestPhases:
    def test_write_issues_two_quorum_rounds(self):
        emu = ABDEmulation(n=5, f=2, scheduler=RandomScheduler(0))
        client = emu.add_client()
        client.enqueue("write", "x")
        assert emu.system.run_to_quiescence().satisfied
        kinds = [op.kind for op in emu.kernel.ops.values()]
        assert kinds.count(OpKind.READ_MAX) == 5
        assert kinds.count(OpKind.WRITE_MAX) == 5

    def test_atomic_read_issues_write_back(self):
        emu = ABDEmulation(n=5, f=2, scheduler=RandomScheduler(1))
        client = emu.add_client()
        client.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        kinds = [op.kind for op in emu.kernel.ops.values()]
        assert kinds.count(OpKind.READ_MAX) == 5
        assert kinds.count(OpKind.WRITE_MAX) == 5  # the write-back

    def test_regular_read_skips_write_back(self):
        emu = ABDEmulation(
            n=5, f=2, write_back=False, scheduler=RandomScheduler(2)
        )
        client = emu.add_client()
        client.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        kinds = [op.kind for op in emu.kernel.ops.values()]
        assert kinds.count(OpKind.WRITE_MAX) == 0


class TestQuorumAccounting:
    def test_write_returns_after_exactly_n_minus_f_acks(self):
        """With client-priority scheduling the write triggers everything
        first; it must not wait for more than n-f write-max responds."""
        emu = ABDEmulation(n=5, f=2, scheduler=ClientPriorityScheduler())
        client = emu.add_client()
        client.enqueue("write", "x")
        assert emu.system.run_to_quiescence().satisfied
        write = emu.history.writes[0]
        # At the write's return time, at most f write-max ops may still be
        # pending (it only awaited n-f).
        late = [
            op
            for op in emu.kernel.ops.values()
            if op.kind is OpKind.WRITE_MAX
            and (op.respond_time is None or op.respond_time > write.return_time)
        ]
        assert len(late) <= 2

    def test_timestamp_is_max_plus_one(self):
        emu = ABDEmulation(n=3, f=1, scheduler=RandomScheduler(4))
        # Pre-load one server with a high timestamp.
        emu.object_map.object(ObjectId(1)).value = TSVal(41, 7, "old")
        client = emu.add_client()
        client.enqueue("write", "new")
        assert emu.system.run_to_quiescence().satisfied
        top = max(obj.value for obj in emu.object_map.objects)
        assert top.ts == 42
        assert top.val == "new"

    def test_writer_id_breaks_timestamp_ties(self):
        """Two writers may pick the same ts concurrently; the wid orders
        them deterministically so histories stay linearizable."""
        emu = ABDEmulation(n=3, f=1, scheduler=RandomScheduler(5))
        a = emu.add_client(ClientId(1))
        b = emu.add_client(ClientId(2))
        a.enqueue("write", "from-1")
        b.enqueue("write", "from-2")
        assert emu.system.run_to_quiescence().satisfied
        top = max(obj.value for obj in emu.object_map.objects)
        if top.ts == 1:  # both picked ts=1: wid must have decided
            assert top.wid == 2
            assert top.val == "from-2"


class TestStaleResponses:
    def test_responses_from_earlier_phase_do_not_corrupt(self):
        """A read-max respond left over from the first phase may arrive
        during the write phase; the results dict keys by OpId so phases
        never cross-count."""
        emu = ABDEmulation(n=5, f=2, scheduler=RandomScheduler(6))
        client = emu.add_client()
        for index in range(3):
            client.enqueue("write", f"v{index}")
        client.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        assert emu.history.reads[-1].result == "v2"


class TestRoundStateIsBounded:
    """A client holds the responses of the round in flight and nothing
    else: the up-to-f responses that arrive after a round returned are
    dropped, not kept for the client's lifetime."""

    def test_500_put_get_pairs_leave_at_most_n_entries(self):
        from repro.apps.shard import ShardedKVService, ShardServiceConfig

        service = ShardedKVService(
            ShardServiceConfig.make(shards=1, n=3, f=1, seed=5)
        )
        with service.session(writer=0) as session:
            for index in range(500):
                session.put("key", index)
                assert session.get("key") == index
        slot = service.fleets[0].slots[0]
        clients = list(slot.clients.values())
        assert len(clients) == 2
        for runtime in clients:
            assert len(runtime.protocol._results) <= 3
        assert all(service.audit().values())

    def test_late_response_is_ignored(self):
        """ClientPriorityScheduler runs the client ahead of the last
        respond, so every round leaves a straggler behind."""
        emu = ABDEmulation(n=3, f=1, scheduler=ClientPriorityScheduler())
        client = emu.add_client()
        for index in range(20):
            client.enqueue("write", index)
        assert emu.system.run_to_quiescence().satisfied
        assert client.protocol._results == {}
        assert len(emu.history.writes) == 20
