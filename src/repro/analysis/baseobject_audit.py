"""Self-audit: are the simulated base objects really atomic?

The whole reproduction rests on the premise that base objects are atomic
(Appendix A: "we assume that the base objects are atomic").  Our kernel
realizes atomicity constructively — operations take effect at their
respond step — but that is a *claim about the implementation*, so this
module re-derives it empirically: it reads each base object's projection
``r|b`` of a finished run (its low-level ops) from the kernel's op log
and runs the generic linearizability checker over every projection up
to a size cap.  The kernel must record its ops (``kernel.ops.record()``;
every ``Deployment`` does): one that kept only its pending ops is
refused.  The log keeps an object's ops only while it has at most
``RECORDED_OPS_PER_OBJECT`` of them; a cap up to that limit skips the
objects past it, as it would skip them anyway, and a larger cap (or
none) refuses to audit them rather than pass them unchecked.

Used by the property-based test suite as a meta-validation of the
substrate: if the kernel ever mis-applied an operation, the audit — not
just some downstream emulation test — pinpoints the object.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.consistency.linearizability import is_linearizable
from repro.consistency.specs import (
    CASSpec,
    MaxRegisterSpec,
    RegisterSpec,
    SequentialSpec,
)
from repro.errors import ModelViolation
from repro.sim.history import HistoryOp
from repro.sim.ids import ObjectId
from repro.sim.kernel import RECORDED_OPS_PER_OBJECT, Kernel
from repro.sim.objects import (
    AtomicRegister,
    BaseObject,
    CASObject,
    LowLevelOp,
    MaxRegister,
)


def spec_for(obj: BaseObject) -> SequentialSpec:
    """The sequential specification matching a base object's type."""
    if isinstance(obj, AtomicRegister):
        return RegisterSpec(obj.initial_value)
    if isinstance(obj, MaxRegister):
        return MaxRegisterSpec(obj.initial_value)
    if isinstance(obj, CASObject):
        return CASSpec(obj.initial_value)
    raise TypeError(f"no spec for base object type {type(obj).__name__}")


#: The projection size past which :func:`audit_base_objects` (and so
#: ``verify_run``) skips an object by default, as too large for the
#: exact checker.  At most the op log's per-object limit, so a default
#: audit never needs a projection the log dropped.
MAX_AUDITED_OPS = 40


class BaseObjectVerdicts(Dict[ObjectId, bool]):
    """A verdict per base object, from :func:`audit_base_objects`.

    ``skipped`` lists the objects over the cap: their verdict is True
    because they were not checked, not because they passed.
    """

    def __init__(self) -> None:
        super().__init__()
        self.skipped: "List[ObjectId]" = []


def _as_history(ops: "List[LowLevelOp]") -> "List[HistoryOp]":
    """Low-level ops as history records (trigger = invoke, respond =
    return)."""
    return [
        HistoryOp(
            seq=op.op_id.value,
            client_id=op.client_id,
            name=op.kind.value,
            args=op.args,
            invoke_time=op.trigger_time,
            return_time=op.respond_time,
            result=op.result,
        )
        for op in ops
    ]


def _dropped(object_id: ObjectId) -> ModelViolation:
    return ModelViolation(
        f"cannot audit {object_id}: the op log dropped its ops after the"
        f" first {RECORDED_OPS_PER_OBJECT} (audit with a cap of at most"
        f" {RECORDED_OPS_PER_OBJECT}, which skips it)"
    )


def object_projections(kernel: Kernel) -> "Dict[ObjectId, List[HistoryOp]]":
    """Every base object's projection ``r|b`` as history records.

    Raises :class:`~repro.errors.ModelViolation` when the log does not
    record (a kernel that kept only its pending ops has no run to audit,
    and an empty projection would pass vacuously) or when it dropped an
    object's ops.
    """
    projections: "Dict[ObjectId, List[HistoryOp]]" = {}
    for obj in kernel.object_map.objects:
        ops = kernel.ops.projection(obj.object_id)
        if ops is None:
            raise _dropped(obj.object_id)
        projections[obj.object_id] = _as_history(ops)
    return projections


def audit_base_objects(
    kernel: Kernel, max_ops_per_object: "Optional[int]" = MAX_AUDITED_OPS
) -> BaseObjectVerdicts:
    """Linearizability verdict for every base object's projection.

    ``max_ops_per_object`` skips projections too large for the exact
    checker: their verdict is True (they are not *checked*, not known
    bad) and they are listed in ``skipped``; None checks everything.  An
    object whose ops the log dropped has more ops than any cap up to
    :data:`~repro.sim.kernel.RECORDED_OPS_PER_OBJECT`, so such a cap
    skips it; under None or a larger cap the audit raises
    :class:`~repro.errors.ModelViolation` naming it.  So does a kernel
    that does not record its ops.
    """
    cap = max_ops_per_object
    verdicts = BaseObjectVerdicts()
    for obj in kernel.object_map.objects:
        object_id = obj.object_id
        ops = kernel.ops.projection(object_id)
        if ops is None and (cap is None or cap > RECORDED_OPS_PER_OBJECT):
            raise _dropped(object_id)
        if cap is not None and (ops is None or len(ops) > cap):
            verdicts[object_id] = True
            verdicts.skipped.append(object_id)
            continue
        verdicts[object_id] = is_linearizable(_as_history(ops), spec_for(obj))
    return verdicts
