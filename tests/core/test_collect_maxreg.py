"""Tests for the k-register max-register and the (2f+1)k emulation."""

import pytest

from tests.conftest import drive_concurrent, drive_sequential

from repro.consistency.linearizability import is_linearizable
from repro.consistency.specs import MaxRegisterSpec
from repro.consistency.ws import check_ws_regular
from repro.core import bounds
from repro.core.collect_maxreg import (
    CollectMaxRegister,
    PerWriterLayout,
    ReplicatedMaxRegisterEmulation,
)
from repro.sim.ids import ServerId
from repro.sim.scheduling import RandomScheduler


class TestCollectMaxRegister:
    def test_uses_exactly_k_registers(self):
        """The construction matches Theorem 2's lower bound of k."""
        for k in (1, 3, 6):
            mreg = CollectMaxRegister(k=k)
            assert mreg.total_registers == k
            assert mreg.total_registers == bounds.k_max_register_lower_bound(k)

    def test_monotone_updates_trigger_at_most_two_ops_each(self):
        """Appendix B's comparison: the collect construction's write-max
        does constant work per update, unlike Algorithm 1's loop."""
        for n_updates in (1, 2, 4, 8, 16, 32):
            mreg = CollectMaxRegister(
                k=4, initial_value=0, scheduler=RandomScheduler(0)
            )
            writer = mreg.add_writer(0)
            for value in range(1, n_updates + 1):
                writer.enqueue("write_max", value)
            assert mreg.system.run_to_quiescence(
                max_steps=2_000_000
            ).satisfied
            assert len(mreg.kernel.ops) <= 2 * n_updates

    def test_write_then_read(self):
        mreg = CollectMaxRegister(k=3, scheduler=RandomScheduler(0))
        writer = mreg.add_writer(1)
        reader = mreg.add_reader()
        drive_sequential(
            mreg.system, [(writer, "write_max", (9,)), (reader, "read_max", ())]
        )
        assert mreg.history.all_ops()[-1].result == 9

    def test_max_across_writers(self):
        mreg = CollectMaxRegister(k=3, scheduler=RandomScheduler(1))
        writers = [mreg.add_writer(i) for i in range(3)]
        reader = mreg.add_reader()
        drive_sequential(
            mreg.system,
            [
                (writers[0], "write_max", (4,)),
                (writers[1], "write_max", (9,)),
                (writers[2], "write_max", (6,)),
                (reader, "read_max", ()),
            ],
        )
        assert mreg.history.all_ops()[-1].result == 9

    def test_read_max_after_every_writer_wrote(self):
        """Theorem 2's construction, exercised at the k of its table."""
        for k in (1, 2, 4, 8, 16):
            mreg = CollectMaxRegister(
                k=k, initial_value=0, scheduler=RandomScheduler(1)
            )
            writers = [mreg.add_writer(i) for i in range(k)]
            reader = mreg.add_reader()
            values = [(i * 7) % (3 * k) + 1 for i in range(k)]
            for writer, value in zip(writers, values):
                writer.enqueue("write_max", value)
            assert mreg.system.run_to_quiescence(max_steps=500_000).satisfied
            reader.enqueue("read_max")
            assert mreg.system.run_to_quiescence(max_steps=500_000).satisfied
            assert mreg.history.all_ops()[-1].result == max(values)

    def test_smaller_write_is_noop(self):
        mreg = CollectMaxRegister(k=2, scheduler=RandomScheduler(2))
        writer = mreg.add_writer(0)
        reader = mreg.add_reader()
        drive_sequential(
            mreg.system,
            [
                (writer, "write_max", (8,)),
                (writer, "write_max", (3,)),
                (reader, "read_max", ()),
            ],
        )
        assert mreg.history.all_ops()[-1].result == 8

    @pytest.mark.parametrize("seed", range(8))
    def test_atomicity_under_concurrency(self, seed):
        mreg = CollectMaxRegister(k=2, scheduler=RandomScheduler(seed))
        writers = [mreg.add_writer(i) for i in range(2)]
        readers = [mreg.add_reader() for _ in range(2)]
        invocations = [
            (writers[0], "write_max", (5,)),
            (writers[1], "write_max", (8,)),
            (readers[0], "read_max", ()),
            (readers[1], "read_max", ()),
        ]
        drive_concurrent(mreg.system, invocations)
        assert is_linearizable(mreg.history.all_ops(), MaxRegisterSpec(0))

    def test_reader_cannot_write(self):
        mreg = CollectMaxRegister(k=2)
        reader = mreg.add_reader()
        reader.enqueue("write_max", 3)
        with pytest.raises(RuntimeError):
            mreg.system.run_to_quiescence()

    def test_writer_index_validated(self):
        mreg = CollectMaxRegister(k=2)
        with pytest.raises(ValueError):
            mreg.add_writer(2)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            CollectMaxRegister(k=0)


class TestPerWriterLayout:
    def test_total_is_nk(self):
        layout = PerWriterLayout(k=3, n=5, f=2)
        assert layout.total_registers == 15
        layout.validate()

    def test_tight_at_minimum_servers(self):
        """(2f+1)k equals the Theorem 1 lower bound at n = 2f+1."""
        for k in (1, 2, 4):
            for f in (1, 2):
                n = 2 * f + 1
                layout = PerWriterLayout(k=k, n=n, f=f)
                assert layout.total_registers == (
                    bounds.register_lower_bound(k, n, f)
                )

    def test_one_register_per_server_per_writer(self):
        layout = PerWriterLayout(k=2, n=5, f=2)
        for w in range(2):
            registers = layout.registers_for_writer(w)
            assert len(registers) == 5
            servers = {layout.server_of(oid) for oid in registers}
            assert len(servers) == 5

    def test_storage_profile_k_per_server(self):
        layout = PerWriterLayout(k=4, n=5, f=2)
        assert all(
            count == 4 for count in layout.storage_profile().values()
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PerWriterLayout(k=1, n=4, f=2)
        with pytest.raises(ValueError):
            PerWriterLayout(k=0, n=3, f=1)


class TestReplicatedMaxRegisterEmulation:
    def test_read_after_writes(self):
        emu = ReplicatedMaxRegisterEmulation(
            k=2, n=5, f=2, scheduler=RandomScheduler(0)
        )
        writers = [emu.add_writer(i) for i in range(2)]
        reader = emu.add_reader()
        drive_sequential(
            emu.system,
            [
                (writers[0], "write", ("a",)),
                (writers[1], "write", ("b",)),
                (reader, "read", ()),
            ],
        )
        assert emu.history.reads[0].result == "b"

    @pytest.mark.parametrize("seed", range(5))
    def test_ws_regular(self, seed):
        emu = ReplicatedMaxRegisterEmulation(
            k=2, n=5, f=2, scheduler=RandomScheduler(seed)
        )
        writers = [emu.add_writer(i) for i in range(2)]
        reader = emu.add_reader()
        script = []
        for i in range(2):
            for w, writer in enumerate(writers):
                script.append((writer, "write", (f"w{w}-{i}",)))
                script.append((reader, "read", ()))
        drive_sequential(emu.system, script)
        assert check_ws_regular(emu.history, cross_check=True) == []

    def test_f_crashes_tolerated(self):
        emu = ReplicatedMaxRegisterEmulation(
            k=2, n=5, f=2, scheduler=RandomScheduler(3)
        )
        emu.kernel.crash_server(ServerId(0))
        emu.kernel.crash_server(ServerId(4))
        writer = emu.add_writer(0)
        reader = emu.add_reader()
        drive_sequential(
            emu.system, [(writer, "write", ("ok",)), (reader, "read", ())]
        )
        assert emu.history.reads[0].result == "ok"

    def test_resource_count(self):
        emu = ReplicatedMaxRegisterEmulation(k=3, n=5, f=2)
        assert emu.total_registers == 15
        assert emu.object_map.n_objects == 15
