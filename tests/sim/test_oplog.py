"""``Kernel.ops``: the triggered-op count, and on a recording kernel each
base object's ops up to ``RECORDED_OPS_PER_OBJECT``, read as a
read-only mapping while nothing was dropped."""

from collections.abc import Mapping

import pytest

from repro.analysis.baseobject_audit import audit_base_objects
from repro.core.emulation import EmulationSpec
from repro.errors import ModelViolation
from repro.sim.events import EventListener
from repro.sim.forking import fork_kernel
from repro.sim.ids import ClientId, ObjectId, OpId, ServerId
from repro.sim.kernel import RECORDED_OPS_PER_OBJECT, OpLog
from repro.sim.objects import OpKind
from repro.sim.scheduling import RandomScheduler
from repro.sim.system import build_system


class _Triggers(EventListener):
    def __init__(self):
        self.ops = []

    def on_trigger(self, event):
        self.ops.append(event.op)


def _abd_run_with_a_crash():
    """ABD (n=3, f=1), server 2 crashed after the first round: the
    requests of later rounds to it are swallowed, never respondable.
    A deployment's kernel records its ops."""
    emulation = EmulationSpec.make("abd", n=3, f=1, seed=4).build()
    kernel = emulation.kernel
    assert kernel.ops.recording
    triggers = _Triggers()
    kernel.add_listener(triggers)
    writer, reader = emulation.add_writer(0), emulation.add_reader()
    for round_index in range(4):
        if round_index == 1:
            kernel.crash_server(ServerId(2))
        writer.enqueue("write", round_index)
        reader.enqueue("read")
        assert emulation.system.run_to_quiescence().satisfied
    return kernel, triggers.ops


def _bare_kernel():
    return build_system(
        1, [(0, "register", None)], scheduler=RandomScheduler(0)
    ).kernel


def _write(kernel):
    return kernel.trigger(ClientId(0), ObjectId(0), OpKind.WRITE, (1,), None)


#: every way to read a log's ops by op id, refused on a log that does
#: not record or that dropped an object's ops
_READS = [
    lambda log: log[0],
    lambda log: 0 in log,
    lambda log: log.get(0),
    lambda log: list(log),
    lambda log: list(log.values()),
    lambda log: dict(log),
]
_READ_IDS = ["getitem", "contains", "get", "iter", "values", "dict"]


class TestOpLog:
    def test_len_counts_every_trigger_including_swallowed_requests(self):
        kernel, triggered = _abd_run_with_a_crash()
        swallowed = [
            op
            for op in triggered
            if kernel.object_map.object(op.object_id).crashed and op.pending
        ]
        assert len(swallowed) >= 6, "the crashed server swallowed too little"
        assert len(kernel.ops) == len(triggered)
        assert kernel.stats()["ops_triggered"] == len(triggered)

    def test_each_op_is_found_under_its_own_id(self):
        kernel, triggered = _abd_run_with_a_crash()
        for op in triggered:
            assert kernel.ops[op.op_id] is op
            assert kernel.ops[int(op.op_id)] is op
            assert op.op_id in kernel.ops

    def test_iteration_and_views_run_in_op_id_order(self):
        kernel, triggered = _abd_run_with_a_crash()
        ids = [OpId(index) for index in range(len(triggered))]
        assert list(kernel.ops) == ids
        assert list(kernel.ops.keys()) == ids
        assert [op.op_id for op in kernel.ops.values()] == ids
        assert list(kernel.ops.values()) == triggered
        assert list(kernel.ops.items()) == list(zip(ids, triggered))

    @pytest.mark.parametrize(
        "key", [10**6, -1, -2, "0", 0.0, None, ObjectId(0), ClientId(0)]
    )
    def test_a_key_that_is_no_op_id_raises_key_error(self, key):
        kernel, _ = _abd_run_with_a_crash()
        with pytest.raises(KeyError):
            kernel.ops[key]
        assert key not in kernel.ops
        assert kernel.ops.get(key) is None

    def test_items_cannot_be_assigned_or_deleted(self):
        kernel, triggered = _abd_run_with_a_crash()
        with pytest.raises(TypeError):
            kernel.ops[OpId(0)] = triggered[1]
        with pytest.raises(TypeError):
            del kernel.ops[OpId(0)]
        with pytest.raises(AttributeError):
            kernel.ops.extra = 1
        assert kernel.ops[OpId(0)] is triggered[0]

    def test_a_forked_kernel_logs_its_own_triggers(self):
        kernel, triggered = _abd_run_with_a_crash()
        fork = fork_kernel(kernel)
        op = fork.trigger(
            ClientId(0), ObjectId(0), OpKind.READ_MAX, (), None
        )
        assert op.op_id == OpId(len(triggered))
        assert fork.ops[op.op_id] is op and len(fork.ops) == len(triggered) + 1
        assert len(kernel.ops) == len(triggered)

    def test_is_an_empty_mapping_before_any_trigger(self):
        kernel = _bare_kernel()
        kernel.ops.record()
        assert isinstance(kernel.ops, OpLog)
        assert isinstance(kernel.ops, Mapping)
        assert not kernel.ops and len(kernel.ops) == 0
        with pytest.raises(KeyError):
            kernel.ops[0]
        op = kernel.trigger(ClientId(0), ObjectId(0), OpKind.WRITE, (1,), None)
        assert op.op_id == OpId(0)
        assert dict(kernel.ops) == {OpId(0): op}


class TestUnrecordedLog:
    """A kernel records only when asked: otherwise it counts triggers and
    keeps the pending ops, and the log refuses to be read."""

    def test_len_counts_triggers_and_ids_stay_dense(self):
        kernel = _bare_kernel()
        assert not kernel.ops.recording
        ops = [_write(kernel) for _ in range(3)]
        assert [op.op_id for op in ops] == [OpId(0), OpId(1), OpId(2)]
        assert len(kernel.ops) == 3 and kernel.ops
        assert kernel.stats()["ops_triggered"] == 3
        assert set(kernel.pending) == {OpId(0), OpId(1), OpId(2)}

    @pytest.mark.parametrize(
        "read",
        [*_READS, lambda log: log.projection(ObjectId(0))],
        ids=[*_READ_IDS, "projection"],
    )
    def test_lookup_and_iteration_raise_model_violation(self, read):
        kernel = _bare_kernel()
        _write(kernel)
        with pytest.raises(ModelViolation, match="does not record"):
            read(kernel.ops)

    def test_record_is_refused_once_anything_was_triggered(self):
        kernel = _bare_kernel()
        _write(kernel)
        with pytest.raises(ModelViolation, match="record after operations"):
            kernel.ops.record()
        assert not kernel.ops.recording


class TestPerObjectLimit:
    """A recording log keeps an object's ops while it has at most
    ``RECORDED_OPS_PER_OBJECT``; one more drops them."""

    LIMIT = RECORDED_OPS_PER_OBJECT

    def _kernel_with(self, writes):
        """Two registers; ``writes`` sequential writes on b0 (each
        responded before the next), one on b1."""
        kernel = build_system(
            1,
            [(0, "register", None), (0, "register", None)],
            scheduler=RandomScheduler(0),
        ).kernel
        kernel.ops.record()
        for _ in range(writes):
            kernel.force_respond(_write(kernel).op_id)
        other = kernel.trigger(
            ClientId(0), ObjectId(1), OpKind.WRITE, (0,), None
        )
        kernel.force_respond(other.op_id)
        return kernel

    def test_an_object_at_the_limit_is_kept_and_audited(self):
        kernel = self._kernel_with(self.LIMIT)
        ops = kernel.ops.projection(ObjectId(0))
        assert [op.op_id for op in ops] == [OpId(i) for i in range(self.LIMIT)]
        assert len(kernel.ops) == self.LIMIT + 1
        assert list(kernel.ops) == [OpId(i) for i in range(self.LIMIT + 1)]
        assert kernel.ops[OpId(self.LIMIT)].object_id == ObjectId(1)
        verdicts = audit_base_objects(kernel, max_ops_per_object=self.LIMIT)
        assert verdicts == {ObjectId(0): True, ObjectId(1): True}
        assert verdicts.skipped == []
        assert all(audit_base_objects(kernel, max_ops_per_object=None).values())

    def test_one_more_op_drops_the_object(self):
        kernel = self._kernel_with(self.LIMIT + 1)
        assert kernel.ops.projection(ObjectId(0)) is None
        assert len(kernel.ops.projection(ObjectId(1))) == 1
        assert len(kernel.ops) == self.LIMIT + 2
        verdicts = audit_base_objects(kernel, max_ops_per_object=self.LIMIT)
        assert verdicts == {ObjectId(0): True, ObjectId(1): True}
        assert verdicts.skipped == [ObjectId(0)]
        for cap in (None, self.LIMIT + 1):
            with pytest.raises(ModelViolation, match="cannot audit b0"):
                audit_base_objects(kernel, max_ops_per_object=cap)

    def test_a_dropped_object_stays_dropped_in_a_fork(self):
        kernel = self._kernel_with(self.LIMIT + 1)
        _write(kernel)
        assert kernel.ops.projection(ObjectId(0)) is None
        fork = fork_kernel(kernel)
        _write(fork)
        assert fork.ops.projection(ObjectId(0)) is None
        assert len(fork.ops) == len(kernel.ops) + 1

    @pytest.mark.parametrize("read", _READS, ids=_READ_IDS)
    def test_lookup_and_iteration_raise_once_an_object_was_dropped(
        self, read
    ):
        kernel = self._kernel_with(self.LIMIT + 1)
        with pytest.raises(ModelViolation, match="dropped the ops of b0"):
            read(kernel.ops)
