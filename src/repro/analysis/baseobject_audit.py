"""Self-audit: are the simulated base objects really atomic?

The whole reproduction rests on the premise that base objects are atomic
(Appendix A: "we assume that the base objects are atomic").  Our kernel
realizes atomicity constructively — operations take effect at their
respond step — but that is a *claim about the implementation*, so this
module re-derives it empirically: it projects the low-level operation
record of a finished run onto each base object (the paper's ``r|b``) and
runs the generic linearizability checker over every projection.  The
kernel must record its ops (``kernel.ops.record()``; every
``Deployment`` does): one that kept only its pending ops is refused.

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
from repro.sim.history import HistoryOp
from repro.sim.ids import ObjectId
from repro.sim.kernel import Kernel
from repro.sim.objects import (
    AtomicRegister,
    BaseObject,
    CASObject,
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


def object_projections(kernel: Kernel) -> "Dict[ObjectId, List[HistoryOp]]":
    """Every base object's projection ``r|b``: its low-level operations as
    history records (trigger = invoke, respond = return), in one pass
    over the kernel's op log.

    Raises :class:`~repro.errors.ModelViolation` when the log does not
    record (``OpLog`` refuses to be read): a kernel that kept only its
    pending ops has no run to audit, and an empty projection would pass
    vacuously.
    """
    projections: "Dict[ObjectId, List[HistoryOp]]" = {
        obj.object_id: [] for obj in kernel.object_map.objects
    }
    for op in kernel.ops.values():
        projections[op.object_id].append(
            HistoryOp(
                seq=op.op_id.value,
                client_id=op.client_id,
                name=op.kind.value,
                args=op.args,
                invoke_time=op.trigger_time,
                return_time=op.respond_time,
                result=op.result,
            )
        )
    return projections


def audit_base_objects(
    kernel: Kernel, max_ops_per_object: "Optional[int]" = 40
) -> "Dict[ObjectId, bool]":
    """Linearizability verdict for every base object's projection.

    ``max_ops_per_object`` skips projections too large for the exact
    checker (returns True for them — they are not *checked*, not known
    bad; pass None to force checking everything).  Raises
    :class:`~repro.errors.ModelViolation` on a kernel that does not
    record its ops.
    """
    projections = object_projections(kernel)
    verdicts: "Dict[ObjectId, bool]" = {}
    for obj in kernel.object_map.objects:
        projection = projections[obj.object_id]
        if (
            max_ops_per_object is not None
            and len(projection) > max_ops_per_object
        ):
            verdicts[obj.object_id] = True
            continue
        verdicts[obj.object_id] = is_linearizable(projection, spec_for(obj))
    return verdicts
