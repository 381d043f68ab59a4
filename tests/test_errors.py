"""The typed error hierarchy and its CLI exit-code mapping."""

import pytest

from repro.cli import exit_code_for
from repro.errors import (
    BoundViolation,
    CellClaimLost,
    CodeVersionMismatch,
    GridFailed,
    InvalidConfig,
    LayoutSearchExhausted,
    ModelViolation,
    NoMergeableResults,
    QueueError,
    QuorumUnavailable,
    ReproError,
    SessionClosed,
    ShardCapacityExceeded,
    TransportUnavailable,
    UnknownExperiment,
    WireDecodeError,
    WriterBoundExceeded,
)
from repro.net.transport import InProcTransport
from repro.sim.ids import ClientId, ObjectId, OpId, ServerId
from repro.sim.objects import LowLevelOp, OpKind, make_object
from repro.sim.replay import ReplayDivergence
from repro.sim.scheduling import RandomScheduler, Scheduler
from repro.sim.server import ObjectMap, Server
from repro.sim.system import build_system

from tests.conftest import ToyProtocol, one_shard_service


class TestHierarchy:
    # (class, legacy builtin it must keep satisfying)
    CASES = [
        (WriterBoundExceeded, ValueError),
        (QuorumUnavailable, RuntimeError),
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
        (LayoutSearchExhausted, RuntimeError),
        (ReplayDivergence, RuntimeError),
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


#: every class's CLI exit code; ReproError itself is a generic usage error.
#: 5 is retired (it belonged to the versioned shard map) and stays unused.
EXIT_CODES = {
    ReproError: 2,
    WriterBoundExceeded: 3,
    QuorumUnavailable: 4,
    ShardCapacityExceeded: 6,
    WireDecodeError: 7,
    InvalidConfig: 8,
    BoundViolation: 9,
    SessionClosed: 10,
    QueueError: 11,
    CellClaimLost: 12,
    CodeVersionMismatch: 13,
    GridFailed: 14,
    NoMergeableResults: 15,
    UnknownExperiment: 16,
    TransportUnavailable: 17,
    ModelViolation: 18,
    LayoutSearchExhausted: 19,
}


class TestExitCodes:
    def test_full_class_to_code_map(self):
        import repro.errors

        classes = {
            value
            for value in vars(repro.errors).values()
            if isinstance(value, type) and issubclass(value, ReproError)
        }
        assert classes == set(EXIT_CODES)
        assert 5 not in EXIT_CODES.values()
        assert {
            error_class: exit_code_for(error_class("x"))
            for error_class in classes
        } == EXIT_CODES

    def test_each_class_gets_a_distinct_code(self):
        # ReplayDivergence is the one case that inherits its parent's
        # code: a replay that is not offered its step is a ModelViolation.
        codes = [
            exit_code_for(error_class("x"))
            for error_class, _ in TestHierarchy.CASES
            if error_class is not ReplayDivergence
        ]
        assert len(set(codes)) == len(codes)
        assert exit_code_for(ReplayDivergence("x")) == EXIT_CODES[ModelViolation]

    def test_queue_subclasses_keep_distinct_codes(self):
        # The claim-protocol subclasses override the exit_code they
        # would otherwise inherit from QueueError.
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
        from repro.net.wire import decode_binary_request

        with pytest.raises(WireDecodeError):
            decode_binary_request(b"\x00garbage")

    def test_config_paths_raise_typed(self):
        # PR 8 migrations: the compat pattern means pre-existing
        # ``except ValueError``/``except RuntimeError`` handlers and
        # pytest.raises assertions keep passing unchanged.
        from repro.apps.shard.config import ShardConfig, ShardServiceConfig
        from repro.core import bounds

        with pytest.raises(InvalidConfig):
            ShardConfig(substrate="abacus")
        with pytest.raises(ValueError):  # legacy shape still works
            ShardConfig(n=1, f=3)
        with pytest.raises(InvalidConfig):
            ShardServiceConfig.make(shards=1, k_writers=0)
        with pytest.raises(BoundViolation):
            bounds.register_upper_bound(0, 5, 2)
        with pytest.raises(ValueError):  # legacy shape still works
            bounds.min_servers(0)
        service = one_shard_service()
        session = service.session()
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


class _Picks(Scheduler):
    """A scheduler that picks ``index`` whatever is offered."""

    def __init__(self, index):
        self.index = index

    def pick(self, clients, responds, kernel):
        return self.index


def _duplicate_client():
    kernel = _kernel()
    kernel.add_client(ClientId(0), ToyProtocol())
    kernel.add_client(ClientId(0), ToyProtocol())


def _unknown_object_type():
    make_object("abacus", ObjectId(0))


def _execute_not_pending():
    _kernel().force_respond(OpId(5))


def _one_client_one_ready_op():
    """A kernel offering one client step and one respond."""
    kernel = _kernel()
    kernel.add_client(ClientId(0), ToyProtocol()).enqueue("read")
    _write(kernel)
    return kernel


def _run_pick_past_the_end():
    kernel = _one_client_one_ready_op()
    kernel.scheduler = _Picks(2)
    kernel.run(max_steps=1)


def _run_pick_negative():
    # Indexed as is, -1 would run the last offered step.
    kernel = _one_client_one_ready_op()
    kernel.scheduler = _Picks(-1)
    kernel.run(max_steps=1)


def _execute_on_crashed_object():
    kernel = _kernel()
    op = _write(kernel, 1)
    kernel.crash_server(ServerId(1))
    kernel.force_respond(op.op_id)


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
    kernel._ready.clear()  # the respond vanishes from the fast view
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


# -- the raise sites R010 used to grandfather ----------------------------------


def _loadgen(**params):
    from repro.apps.shard import ShardedKVService, ShardServiceConfig, run_loadgen

    service = ShardedKVService(ShardServiceConfig.make(shards=1))
    run_loadgen(service, clock=lambda: 0.0, sleep=lambda _: None, **params)


def _loadgen_zero_rate():
    _loadgen(rate=0)


def _loadgen_zero_sessions():
    _loadgen(sessions=0)


def _router_without_shards():
    from repro.apps.shard.router import ShardRouter

    ShardRouter(0)


def _one_write_history():
    from repro.core.ws_register import WSRegisterEmulation

    emu = WSRegisterEmulation(k=1, n=3, f=1, scheduler=RandomScheduler(0))
    emu.add_writer(0).enqueue("write", "v")
    emu.kernel.run()
    return emu


def _mw_regularity_over_write_budget():
    from repro.consistency.mw_regularity import check_mw_regular_strong

    check_mw_regular_strong(_one_write_history().history, max_writes=0)


def _spec(name):
    from repro.consistency import specs

    getattr(specs, name)(None).apply(None, "increment", ())


def _register_spec_unknown_op():
    _spec("RegisterSpec")


def _max_register_spec_unknown_op():
    _spec("MaxRegisterSpec")


def _cas_spec_unknown_op():
    _spec("CASSpec")


def _reader_write_max():
    from repro.core.collect_maxreg import CollectMaxRegister

    emu = CollectMaxRegister(k=2)
    emu.add_reader().enqueue("write_max", 5)
    emu.kernel.run()


def _tracker():
    from repro.core.covering import CoveringTracker

    return CoveringTracker(_one_write_history().object_map, f=1)


def _covering_phase_wrong_F():
    _tracker().start_phase(1, {ServerId(0)}, 0)


def _covering_end_without_phase():
    _tracker().end_phase()


def _layout(*args, **kwargs):
    from repro.core.layout_opt import capacitated_layout

    capacitated_layout(*args, **kwargs)


def _layout_zero_writers():
    _layout(0, 1, 1)


def _layout_zero_capacity():
    _layout(1, 1, 0)


def _layout_search_capped():
    _layout(5, 2, 1, max_servers=3)


def _lemma1_runner(F=None):
    from repro.core.lemma1 import Lemma1Runner
    from repro.core.ws_register import WSRegisterEmulation

    def factory(scheduler):
        return WSRegisterEmulation(k=2, n=5, f=1, scheduler=scheduler)

    return Lemma1Runner(factory, k=2, f=1, F=F)


def _lemma1_F_wrong_size():
    _lemma1_runner(F={ServerId(0)})


def _lemma1_F_outside_servers():
    _lemma1_runner(F={ServerId(0), ServerId(99)})


def _lemma1_wrong_value_count():
    _lemma1_runner().run(values=["only one"])


def _duplicate_lint_rule():
    from repro.lint import RULES, register_rule

    register_rule(type(RULES["R001"]))


def _negative_varint():
    from repro.net.wire import _pack_varint

    _pack_varint(-1, bytearray())


def _oversized_frame():
    from repro.net.wire import MAX_FRAME_BYTES, _frame

    _frame(bytearray(4 + MAX_FRAME_BYTES + 1))


def _chaos(**params):
    from repro.sim.chaos import ChaosEnvironment

    ChaosEnvironment(**params)


def _chaos_certain_veto():
    _chaos(veto_probability=1.0)


def _chaos_negative_delay():
    _chaos(max_delay=-1)


def _unknown_high_level_op():
    ToyProtocol().make_operation(None, "increment", ())


def _runtime():
    from repro.sim.client import ClientRuntime

    return ClientRuntime(ClientId(0), ToyProtocol())


def _step_crashed_client():
    runtime = _runtime()
    runtime.crash()
    runtime.step()


def _step_without_runnable_task():
    runtime = _runtime()
    runtime.active_seq = 0  # an operation in flight, but no task left
    runtime.step()


def _spawn_outside_operation():
    _runtime().spawn(iter(()), "orphan")


def _unknown_action_descriptor():
    from repro.sim.replay import materialize

    materialize(("teleport", 0), [], [])


def _unknown_trace_kind():
    from repro.sim.tracing import TraceRecorder

    TraceRecorder(kinds={"teleport"})


def _max_of_no_tsvals():
    from repro.sim.values import max_tsval

    max_tsval([])


def _zipf_without_keys():
    from repro.workloads.generators import ZipfKeys

    ZipfKeys(0)


def _zipf_negative_exponent():
    from repro.workloads.generators import ZipfKeys

    ZipfKeys(10, s=-1)


class TestSimulationRaiseSites:
    """Every raise site of ``sim/kernel.py``, ``sim/objects.py``,
    ``sim/server.py`` and ``sim/system.py`` is typed, and so is every
    site R010 once grandfathered; each is still the builtin it raised
    before."""

    SITES = [
        (_duplicate_client, InvalidConfig, ValueError),
        (_unknown_object_type, InvalidConfig, ValueError),
        (_execute_not_pending, ModelViolation, ValueError),
        (_run_pick_past_the_end, ModelViolation, ValueError),
        (_execute_on_crashed_object, ModelViolation, RuntimeError),
        (_run_pick_negative, ModelViolation, RuntimeError),
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
        (_loadgen_zero_rate, InvalidConfig, ValueError),
        (_loadgen_zero_sessions, InvalidConfig, ValueError),
        (_router_without_shards, InvalidConfig, ValueError),
        (_mw_regularity_over_write_budget, InvalidConfig, ValueError),
        (_register_spec_unknown_op, ModelViolation, ValueError),
        (_max_register_spec_unknown_op, ModelViolation, ValueError),
        (_cas_spec_unknown_op, ModelViolation, ValueError),
        (_reader_write_max, WriterBoundExceeded, RuntimeError),
        (_covering_phase_wrong_F, InvalidConfig, ValueError),
        (_covering_end_without_phase, ModelViolation, RuntimeError),
        (_layout_zero_writers, InvalidConfig, ValueError),
        (_layout_zero_capacity, InvalidConfig, ValueError),
        (_layout_search_capped, LayoutSearchExhausted, RuntimeError),
        (_lemma1_F_wrong_size, InvalidConfig, ValueError),
        (_lemma1_F_outside_servers, InvalidConfig, ValueError),
        (_lemma1_wrong_value_count, InvalidConfig, ValueError),
        (_duplicate_lint_rule, InvalidConfig, ValueError),
        (_negative_varint, InvalidConfig, ValueError),
        (_oversized_frame, InvalidConfig, ValueError),
        (_chaos_certain_veto, InvalidConfig, ValueError),
        (_chaos_negative_delay, InvalidConfig, ValueError),
        (_unknown_high_level_op, ModelViolation, ValueError),
        (_step_crashed_client, ModelViolation, RuntimeError),
        (_step_without_runnable_task, ModelViolation, RuntimeError),
        (_spawn_outside_operation, ModelViolation, RuntimeError),
        (_unknown_action_descriptor, InvalidConfig, ValueError),
        (_unknown_trace_kind, InvalidConfig, ValueError),
        (_max_of_no_tsvals, InvalidConfig, ValueError),
        (_zipf_without_keys, InvalidConfig, ValueError),
        (_zipf_negative_exponent, InvalidConfig, ValueError),
    ]

    @pytest.mark.parametrize(
        "site, error_class, legacy",
        SITES,
        ids=[site.__name__.lstrip("_") for site, _, _ in SITES],
    )
    def test_site_raises_typed(self, site, error_class, legacy):
        with pytest.raises(error_class) as failure:
            site()
        assert type(failure.value) is error_class
        assert isinstance(failure.value, legacy)
        assert exit_code_for(failure.value) == EXIT_CODES[error_class]
