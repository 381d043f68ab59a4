"""White-box tests for Algorithm 2's collect/scan/cover machinery.

These pin down the trickiest behaviours with forced stepping: scans are
sequential per server, stale read responses are harmless, the cover set
retriggers with the *current* timestamped value, and the first write
starts from the wrSet = R_j initial state.
"""

import pytest

from repro.core.ws_register import WSRegisterClient, WSRegisterEmulation
from repro.sim.ids import ClientId, ObjectId
from repro.sim.objects import OpKind
from repro.sim.scheduling import (
    ClientPriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.sim.values import TSVal


def _emulation(k=1, n=3, f=1, scheduler=None):
    return WSRegisterEmulation(
        k=k, n=n, f=f, scheduler=scheduler or RoundRobinScheduler()
    )


def _protocol(runtime) -> WSRegisterClient:
    return runtime.protocol


class TestInitialState:
    def test_wrset_starts_as_Rj(self):
        emu = _emulation()
        writer = emu.add_writer(0)
        protocol = _protocol(writer)
        assert protocol.wr_set == set(emu.layout.registers_for_writer(0))
        assert protocol.cover_set == set()

    def test_reader_has_empty_wrset(self):
        emu = _emulation()
        reader = emu.add_reader()
        assert _protocol(reader).wr_set == set()

    def test_initial_tsval_is_bottom(self):
        emu = _emulation()
        writer = emu.add_writer(0)
        assert _protocol(writer).ts_val.ts == 0


class TestFirstWrite:
    def test_first_write_triggers_all_registers(self):
        emu = _emulation()
        writer = emu.add_writer(0)
        writer.enqueue("write", "v")
        assert emu.system.run_to_quiescence().satisfied
        triggered = {
            op.object_id
            for op in emu.kernel.ops.values()
            if op.is_mutator and op.client_id == writer.client_id
        }
        assert triggered == set(emu.layout.registers_for_writer(0))

    def test_write_carries_incremented_timestamp(self):
        emu = _emulation()
        writer = emu.add_writer(0)
        writer.enqueue("write", "v")
        assert emu.system.run_to_quiescence().satisfied
        stored = [
            obj.value for obj in emu.object_map.objects if obj.value.ts > 0
        ]
        assert stored and all(value.ts == 1 for value in stored)
        assert all(value.wid == 0 for value in stored)


class TestCoverRetrigger:
    def test_held_write_retriggers_current_value(self):
        """When a covering write finally responds, the handler immediately
        rewrites the *current* ts_val (lines 30-32)."""
        from repro.core.ablation import ScriptedWriteBlocker

        env = ScriptedWriteBlocker()
        emu = WSRegisterEmulation(
            k=1, n=3, f=1, scheduler=RoundRobinScheduler(), environment=env
        )
        b0, b1, b2 = emu.layout.registers_for_writer(0)
        env.block(b2)
        writer = emu.add_writer(0)
        writer.enqueue("write", "v1")
        assert emu.kernel.run(
            max_steps=10_000, until=lambda k: writer.idle
        ).satisfied
        writer.enqueue("write", "v2")
        assert emu.kernel.run(
            max_steps=10_000, until=lambda k: writer.idle and not writer.program
        ).satisfied
        protocol = _protocol(writer)
        assert protocol.cover_set == {b2}
        # Release the held write: the handler must retrigger ts_val (v2).
        held = [
            op for op in emu.kernel.pending.values() if op.object_id == b2
        ]
        assert len(held) == 1
        emu.kernel.force_respond(held[0].op_id)
        assert protocol.cover_set == set()
        retriggered = [
            op
            for op in emu.kernel.pending.values()
            if op.object_id == b2 and op.is_mutator
        ]
        assert len(retriggered) == 1
        assert retriggered[0].args[0].val == "v2"
        # When it responds, b2 finally holds the current value.
        emu.kernel.force_respond(retriggered[0].op_id)
        assert emu.object_map.object(b2).value.val == "v2"


class TestScans:
    def test_scan_reads_servers_registers_sequentially(self):
        emu = _emulation(k=2, n=3, f=1)  # 2 registers on some server
        reader = emu.add_reader()
        reader.enqueue("read")
        # Drive with client priority so triggers happen ASAP; track that at
        # most one outstanding read per server exists at any time.
        from repro.sim.events import EventListener

        class PerServerOutstanding(EventListener):
            def __init__(self, object_map):
                self.object_map = object_map
                self.outstanding = {}
                self.max_outstanding = 0

            def on_trigger(self, event):
                if event.op.kind is OpKind.READ:
                    sid = self.object_map.server_of(event.op.object_id)
                    self.outstanding[sid] = self.outstanding.get(sid, 0) + 1
                    self.max_outstanding = max(
                        self.max_outstanding, self.outstanding[sid]
                    )

            def on_respond(self, event):
                if event.op.kind is OpKind.READ:
                    sid = self.object_map.server_of(event.op.object_id)
                    self.outstanding[sid] -= 1

        monitor = PerServerOutstanding(emu.object_map)
        emu.kernel.add_listener(monitor)
        assert emu.system.run_to_quiescence().satisfied
        assert monitor.max_outstanding == 1  # line 16: one at a time

    def test_collect_returns_highest_timestamp(self):
        emu = _emulation(k=2, n=5, f=2)
        # Pre-load registers with different timestamps directly.
        registers = emu.layout.all_registers
        emu.object_map.object(registers[0]).value = TSVal(3, 0, "high")
        emu.object_map.object(registers[1]).value = TSVal(2, 0, "low")
        reader = emu.add_reader()
        reader.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        assert emu.history.reads[0].result == "high"

    def test_stale_read_responses_harmless(self):
        """A read left pending by an earlier collect may respond during a
        later one; it lands in rd_set with a current register value and
        cannot corrupt the maximum."""
        emu = _emulation(k=1, n=3, f=1)
        emu.kernel.crash_server(
            emu.layout.server_of(emu.layout.all_registers[0])
        )
        writer = emu.add_writer(0)
        reader = emu.add_reader()
        writer.enqueue("write", "w1")
        assert emu.system.run_to_quiescence().satisfied
        # Two consecutive reads; the crashed server's scan never finishes,
        # leaving no respondable leftovers, while live-server leftovers
        # (if any) respond during the second collect.
        reader.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        reader.enqueue("read")
        assert emu.system.run_to_quiescence().satisfied
        assert [r.result for r in emu.history.reads] == ["w1", "w1"]

    def test_read_ids_of_abandoned_scans_are_forgotten(self):
        """Scans past the ``n - f`` a collect needs are abandoned and
        never resumed; the ids of the reads they triggered must not pile
        up over a long run.  Each collect starts afresh, so a client
        holds at most one id per register."""
        emu = WSRegisterEmulation(5, 6, 2, scheduler=RandomScheduler(9))
        writers = [emu.add_writer(index) for index in range(5)]
        readers = [emu.add_reader() for _ in range(2)]
        clients = writers + readers
        registers = emu.layout.total_registers
        for round_index in range(150):
            for writer in writers:
                writer.enqueue("write", round_index)
            for reader in readers:
                reader.enqueue("read")
            assert emu.system.run_to_quiescence().satisfied
            held = max(len(_protocol(c)._read_done) for c in clients)
            assert held <= registers, (round_index, held)
