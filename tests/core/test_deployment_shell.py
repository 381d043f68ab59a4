"""The one deployment shell and the one slot-fleet engine, as readable
contracts: what the byte-identical goldens pin as a sha is spelled out
here by name (client ids, op names, conditions, error types)."""

import pytest

from repro.apps.shard import ShardConfig
from repro.core import EmulationSpec, algorithm_names
from repro.core.ablation import (
    NoCoverAvoidanceClient,
    NoCoverAvoidanceEmulation,
    SmallQuorumClient,
    SmallQuorumEmulation,
)
from repro.core.collect_maxreg import PerWriterLayout
from repro.core.multi import MultiRegisterDeployment, SlotFleet
from repro.core.ws_register import WSRegisterClient
from repro.errors import BoundViolation, InvalidConfig, WriterBoundExceeded
from repro.sim.ids import ClientId, ObjectId
from repro.sim.scheduling import RandomScheduler
from tests.core.test_emulation_protocol import SPECS

#: algorithm -> (reader ids of the golden scenario: two writers, then two
#: auto-numbered readers; the same with ``ClientId(5000)`` added as a
#: reader in between).  Writers are ``ClientId(w)`` everywhere.
READER_IDS = {
    # the n-th auto reader is k + 1000 + (auto readers so far)
    "ws-register": ((1002, 1003), (1002, 5000, 1003)),
    "replicated-maxreg": ((1002, 1003), (1002, 5000, 1003)),
    "collect-maxreg": ((1002, 1003), (1002, 5000, 1003)),
    # 1000 + c, with c = max(c, id) + 1 after every add
    "abd": ((1002, 2003), (1002, 5000, 6001)),
    "ft-maxreg": ((1002, 2003), (1002, 5000, 6001)),
    # 1000 + (clients so far)
    "cas-abd": ((1002, 1003), (1002, 5000, 1004)),
    "single-cas": ((1002, 1003), (1002, 5000, 1004)),
}


def _build(algorithm):
    return EmulationSpec.make(algorithm, **SPECS[algorithm]).build()


def _value(emulation, counter):
    if emulation.CONDITION == "max-register-atomic":
        return counter
    return f"v{counter}"


def _deployed(object_map):
    """(type, server, initial value) of every base object, in id order."""
    objects = (
        object_map.object(ObjectId(i)) for i in range(object_map.n_objects)
    )
    return [
        (type(obj), object_map.server_of(obj.object_id), obj.value)
        for obj in objects
    ]


class TestClientIds:
    def test_table_covers_the_registry(self):
        assert set(READER_IDS) == set(algorithm_names())

    @pytest.mark.parametrize("algorithm", sorted(READER_IDS))
    def test_golden_scenario_ids(self, algorithm):
        emulation = _build(algorithm)
        writers = [emulation.add_writer(w).client_id.index for w in range(2)]
        readers = [emulation.add_reader().client_id.index for _ in range(2)]
        assert writers == [0, 1]
        assert tuple(readers) == READER_IDS[algorithm][0]
        assert emulation.writer_client_id(1) == ClientId(1)

    @pytest.mark.parametrize("algorithm", sorted(READER_IDS))
    def test_explicit_reader_id_in_between(self, algorithm):
        emulation = _build(algorithm)
        for w in range(2):
            emulation.add_writer(w)
        readers = [
            emulation.add_reader().client_id.index,
            emulation.add_reader(ClientId(5000)).client_id.index,
            emulation.add_reader().client_id.index,
        ]
        assert tuple(readers) == READER_IDS[algorithm][1]


class TestOpNamesAndAudit:
    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_history_selects_the_algorithms_own_op_names(self, algorithm):
        emulation = _build(algorithm)
        writer, reader = emulation.add_writer(0), emulation.add_reader()
        writer.enqueue(emulation.WRITE, _value(emulation, 1))
        assert emulation.system.run_to_quiescence().satisfied
        reader.enqueue(emulation.READ)
        assert emulation.system.run_to_quiescence().satisfied
        history = emulation.history
        assert len(history.writes) == 1 and len(history.reads) == 1
        assert history.reads[0].result == _value(emulation, 1)

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_audit_judges_the_stated_condition(self, algorithm):
        emulation = _build(algorithm)
        writer, reader = emulation.add_writer(0), emulation.add_reader()
        for counter in (1, 2):
            writer.enqueue(emulation.WRITE, _value(emulation, counter))
            reader.enqueue(emulation.READ)
            assert emulation.system.run_to_quiescence().satisfied
        assert emulation.audit()
        # A read of a value nobody wrote breaks every condition.
        emulation.history.reads[-1].result = _value(emulation, 99)
        assert not emulation.audit()

    def test_regular_abd_audits_as_ws_regular(self):
        atomic = EmulationSpec.make("abd", n=3, f=1).build()
        regular = EmulationSpec.make("abd", n=3, f=1, write_back=False).build()
        assert atomic.CONDITION == "atomic"
        assert regular.CONDITION == "ws-regular"


class TestTypedErrors:
    def test_unknown_algorithm(self):
        with pytest.raises(InvalidConfig, match="known: abd"):
            EmulationSpec("made-up").build()

    @pytest.mark.parametrize("algorithm", ["abd", "cas-abd", "ft-maxreg"])
    def test_too_few_servers(self, algorithm):
        with pytest.raises(BoundViolation):
            EmulationSpec.make(algorithm, n=2, f=1).build()

    def test_per_writer_layout_parameters(self):
        with pytest.raises(BoundViolation):
            PerWriterLayout(k=1, n=4, f=2)
        with pytest.raises(BoundViolation):
            PerWriterLayout(k=0, n=3, f=1)
        with pytest.raises(BoundViolation):
            EmulationSpec.make("collect-maxreg", k=0).build()

    @pytest.mark.parametrize(
        "algorithm", ["ws-register", "replicated-maxreg", "collect-maxreg"]
    )
    def test_bounded_writers(self, algorithm):
        emulation = _build(algorithm)  # k = 2
        emulation.add_writer(0)
        with pytest.raises(InvalidConfig):
            emulation.add_writer(0)
        for index in (-1, 2):
            with pytest.raises(WriterBoundExceeded):
                emulation.add_writer(index)
        assert len(emulation.kernel.clients) == 1


class TestAblationVariants:
    @pytest.mark.parametrize(
        "emulation_class,client_class",
        [
            (NoCoverAvoidanceEmulation, NoCoverAvoidanceClient),
            (SmallQuorumEmulation, SmallQuorumClient),
        ],
    )
    def test_only_writers_run_the_ablated_client(
        self, emulation_class, client_class
    ):
        emulation = emulation_class(k=1, n=3, f=1)
        emulation.add_writer(0)
        emulation.add_reader()
        writer, reader = emulation.clients
        assert type(writer) is client_class
        assert type(reader) is WSRegisterClient


class TestOneEngineTwoFronts:
    M, K, N, F, SEED = 3, 2, 5, 2, 13

    def test_same_operations_same_placements_profile_and_histories(self):
        deployment = MultiRegisterDeployment(
            self.M, self.K, self.N, self.F, scheduler=RandomScheduler(self.SEED)
        )
        config = ShardConfig(
            substrate="register",
            capacity=self.M,
            k_writers=self.K,
            n=self.N,
            f=self.F,
        )
        fleet = SlotFleet(
            config.substrate,
            config.capacity,
            config.k_writers,
            config.n,
            config.f,
            scheduler=RandomScheduler(self.SEED),
        )
        assert _deployed(fleet.object_map) == _deployed(deployment.object_map)
        assert fleet.storage_profile() == deployment.storage_profile()
        assert fleet.total_objects == deployment.total_registers

        fronts = []
        for slot in range(self.M):
            register = deployment.register(slot)
            fronts.append(
                (
                    [register.add_writer(w) for w in range(self.K)]
                    + [register.add_reader()],
                    [fleet.writer(slot, w) for w in range(self.K)]
                    + [fleet.reader(slot)],
                )
            )
        for round_index in range(3):
            for slot, sides in enumerate(fronts):
                for clients in sides:
                    writer = clients[round_index % self.K]
                    writer.enqueue("write", f"s{slot}-r{round_index}")
                    clients[-1].enqueue("read")
            assert deployment.system.run_to_quiescence().satisfied
            assert fleet.run_to_quiescence().satisfied
        for slot in range(self.M):
            ours = deployment.register(slot)
            theirs = fleet.slots[slot]
            assert len(ours.history) == 6
            assert ours.history.to_dicts() == theirs.history.to_dicts()
            assert ours.audit() and theirs.audit()
