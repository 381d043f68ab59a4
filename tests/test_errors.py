"""The typed error hierarchy and its CLI exit-code mapping."""

import pytest

from repro.cli import exit_code_for
from repro.errors import (
    BoundViolation,
    CellClaimLost,
    CodeVersionMismatch,
    GridFailed,
    InvalidConfig,
    ModelViolation,
    NoMergeableResults,
    QueueError,
    QuorumUnavailable,
    ReproError,
    SessionClosed,
    ShardCapacityExceeded,
    StaleShardMap,
    TransportUnavailable,
    UnknownExperiment,
    WireDecodeError,
    WriterBoundExceeded,
)
from repro.net.transport import InProcTransport
from repro.sim.ids import ClientId, ObjectId, OpId, ServerId
from repro.sim.kernel import Action, ActionKind
from repro.sim.objects import LowLevelOp, OpKind, make_object
from repro.sim.scheduling import RandomScheduler
from repro.sim.server import ObjectMap, Server
from repro.sim.system import build_system

from tests.conftest import ToyProtocol


class TestHierarchy:
    # (class, legacy builtin it must keep satisfying)
    CASES = [
        (WriterBoundExceeded, ValueError),
        (QuorumUnavailable, RuntimeError),
        (StaleShardMap, RuntimeError),
        (ShardCapacityExceeded, RuntimeError),
        (WireDecodeError, ValueError),
        (InvalidConfig, ValueError),
        (BoundViolation, ValueError),
        (SessionClosed, RuntimeError),
        (QueueError, RuntimeError),
        (CellClaimLost, RuntimeError),
        (CodeVersionMismatch, RuntimeError),
        (GridFailed, RuntimeError),
        (NoMergeableResults, ValueError),
        (UnknownExperiment, ValueError),
        (TransportUnavailable, RuntimeError),
        (ModelViolation, ValueError),
    ]

    @pytest.mark.parametrize("error_class,legacy", CASES)
    def test_dual_inheritance(self, error_class, legacy):
        error = error_class("boom")
        assert isinstance(error, ReproError)
        assert isinstance(error, legacy)

    def test_one_root_catches_all(self):
        for error_class, _ in self.CASES:
            with pytest.raises(ReproError):
                raise error_class("boom")

    def test_legacy_handlers_still_work(self):
        # The shape the redesign must not break: pre-existing
        # ``except ValueError`` call sites around e.g. wire decoding.
        with pytest.raises(ValueError):
            raise WireDecodeError("truncated frame")
        with pytest.raises(RuntimeError):
            raise QuorumUnavailable("quorum gone")


class TestExitCodes:
    def test_each_class_gets_a_distinct_code(self):
        codes = [
            exit_code_for(error_class("x"))
            for error_class, _ in TestHierarchy.CASES
        ]
        assert codes == [
            3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18
        ]
        assert len(set(codes)) == len(codes)

    def test_queue_subclasses_keep_distinct_codes(self):
        # isinstance ordering: the claim-protocol subclasses must not
        # collapse into the generic QueueError code.
        assert exit_code_for(CellClaimLost("x")) == 12
        assert exit_code_for(CodeVersionMismatch("x")) == 13
        assert exit_code_for(QueueError("x")) == 11

    def test_queue_errors_catchable_as_family(self):
        for error_class in (CellClaimLost, CodeVersionMismatch):
            with pytest.raises(QueueError):
                raise error_class("boom")

    def test_registry_paths_raise_typed(self):
        from repro.experiments import get_experiment

        with pytest.raises(UnknownExperiment):
            get_experiment("NO-SUCH-EXPERIMENT")
        with pytest.raises(ValueError):  # legacy shape still works
            get_experiment("NO-SUCH-EXPERIMENT")

    def test_unknown_errors_fall_back_to_generic(self):
        assert exit_code_for(ReproError("x")) == 2
        assert exit_code_for(ValueError("x")) == 2

    def test_wire_decode_paths_raise_typed(self):
        from repro.net.wire import decode_binary_request, decode_request

        with pytest.raises(WireDecodeError):
            decode_request(b"not json\n")
        with pytest.raises(WireDecodeError):
            decode_binary_request(b"\x00garbage")

    def test_config_paths_raise_typed(self):
        # PR 8 migrations: the compat pattern means pre-existing
        # ``except ValueError``/``except RuntimeError`` handlers and
        # pytest.raises assertions keep passing unchanged.
        from repro.apps.kv import KVConfig, ReplicatedKVStore
        from repro.apps.shard.config import ShardConfig
        from repro.core import bounds

        with pytest.raises(InvalidConfig):
            ShardConfig(substrate="abacus")
        with pytest.raises(ValueError):  # legacy shape still works
            ShardConfig(n=1, f=3)
        with pytest.raises(InvalidConfig):
            KVConfig(k_writers=0)
        with pytest.raises(BoundViolation):
            bounds.register_upper_bound(0, 5, 2)
        with pytest.raises(ValueError):  # legacy shape still works
            bounds.min_servers(0)
        store = ReplicatedKVStore(KVConfig())
        session = store.session()
        session.close()
        with pytest.raises(SessionClosed):
            session.get("k")
        with pytest.raises(RuntimeError):  # legacy shape still works
            session.put("k", "v")


# -- the simulation kernel's and base objects' raise sites -------------------


def _kernel():
    """Registers b0 on s0 and b1 on s1, in-process delivery."""
    placements = [(0, "register", None), (1, "register", None)]
    return build_system(2, placements, scheduler=RandomScheduler(0)).kernel


def _write(kernel, object_index=0):
    return kernel.trigger(
        ClientId(0), ObjectId(object_index), OpKind.WRITE, (1,), None
    )


def _respond(op_id):
    return Action(ActionKind.RESPOND, None, op_id)


class _Picks:
    """A scheduler that picks ``action`` whatever is enabled."""

    def __init__(self, action):
        self.action = action

    def choose(self, actions, kernel):
        return self.action


def _duplicate_client():
    kernel = _kernel()
    kernel.add_client(ClientId(0), ToyProtocol())
    kernel.add_client(ClientId(0), ToyProtocol())


def _unknown_object_type():
    make_object("abacus", ObjectId(0))


def _execute_not_pending():
    _kernel().execute(_respond(OpId(5)))


def _run_not_pending():
    kernel = _kernel()
    _write(kernel)
    kernel.scheduler = _Picks(_respond(OpId(5)))
    kernel.run(max_steps=1)


def _execute_on_crashed_object():
    kernel = _kernel()
    op = _write(kernel, 1)
    kernel.crash_server(ServerId(1))
    kernel.execute(_respond(op.op_id))


def _run_on_crashed_object():
    kernel = _kernel()
    op = _write(kernel, 1)
    _write(kernel, 0)  # keeps a respond enabled after the crash
    kernel.crash_server(ServerId(1))
    kernel.scheduler = _Picks(_respond(op.op_id))
    kernel.run(max_steps=1)


def _apply_on_crashed_object():
    register = make_object("register", ObjectId(0))
    register.crashed = True
    register.apply(
        LowLevelOp(OpId(0), ClientId(0), ObjectId(0), OpKind.READ, (), 0)
    )


def _unsupported_op_kind():
    _kernel().trigger(ClientId(0), ObjectId(0), OpKind.CAS, (None, 1), None)


def _transport_swapped_after_triggers():
    kernel = _kernel()
    _write(kernel)
    kernel.set_transport(InProcTransport())


def _incremental_state_diverged():
    kernel = _kernel()
    _write(kernel)
    kernel._respond_actions.clear()  # the respond vanishes from the fast view
    kernel.check_incremental()


def _object_hosted_twice():
    Server(ServerId(0), [ObjectId(0)]).host(ObjectId(0))


def _duplicate_server():
    object_map = ObjectMap()
    object_map.add_server(ServerId(0))
    object_map.add_server(ServerId(0))


def _duplicate_object():
    object_map = ObjectMap()
    object_map.add_server(ServerId(0))
    object_map.add_object(make_object("register", ObjectId(0)), ServerId(0))
    object_map.add_object(make_object("register", ObjectId(0)), ServerId(0))


def _object_on_unknown_server():
    ObjectMap().add_object(make_object("register", ObjectId(0)), ServerId(3))


def _system_without_servers():
    build_system(0, [])


def _placement_out_of_range():
    build_system(2, [(2, "register", None)])


class TestSimulationRaiseSites:
    """Every raise site of ``sim/kernel.py``, ``sim/objects.py``,
    ``sim/server.py`` and ``sim/system.py`` is typed, and still the
    builtin it raised before."""

    SITES = [
        (_duplicate_client, InvalidConfig, ValueError),
        (_unknown_object_type, InvalidConfig, ValueError),
        (_execute_not_pending, ModelViolation, ValueError),
        (_run_not_pending, ModelViolation, ValueError),
        (_execute_on_crashed_object, ModelViolation, RuntimeError),
        (_run_on_crashed_object, ModelViolation, RuntimeError),
        (_apply_on_crashed_object, ModelViolation, RuntimeError),
        (_unsupported_op_kind, ModelViolation, ValueError),
        (_transport_swapped_after_triggers, ModelViolation, RuntimeError),
        (_incremental_state_diverged, ModelViolation, RuntimeError),
        (_object_hosted_twice, InvalidConfig, ValueError),
        (_duplicate_server, InvalidConfig, ValueError),
        (_duplicate_object, InvalidConfig, ValueError),
        (_object_on_unknown_server, InvalidConfig, ValueError),
        (_system_without_servers, InvalidConfig, ValueError),
        (_placement_out_of_range, InvalidConfig, ValueError),
    ]

    @pytest.mark.parametrize(
        "site, error_class, legacy",
        SITES,
        ids=[site.__name__.lstrip("_") for site, _, _ in SITES],
    )
    def test_site_raises_typed(self, site, error_class, legacy):
        with pytest.raises(error_class) as failure:
            site()
        assert isinstance(failure.value, legacy)
        assert exit_code_for(failure.value) == (
            8 if error_class is InvalidConfig else 18
        )
