"""Base object types hosted on servers.

Three primitives are studied by the paper:

* read/write **register** (``AtomicRegister``),
* **max-register** (``MaxRegister``) — ``write-max(v)`` / ``read-max()``,
* **CAS** (``CASObject``) — ``cas(exp, new)`` returning the old value.

All base objects are atomic.  Concretely, a low-level operation *takes
effect* exactly at its respond step, in respond order.  For writes this is
the paper's Assumption 1 (Write Linearization): a pending write is not
observed by any read until its respond event occurs — this is precisely
what gives the lower-bound adversary its covering power.  Applying reads
at respond time as well yields one specific (valid) linearization of each
object history and keeps the simulation deterministic given a schedule.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional, Tuple

from repro.errors import InvalidConfig, ModelViolation
from repro.sim.ids import ClientId, ObjectId, OpId


class OpKind(Enum):
    """Kinds of low-level operations supported by the base object types."""

    READ = "read"
    WRITE = "write"
    READ_MAX = "read_max"
    WRITE_MAX = "write_max"
    CAS = "cas"

    @property
    def is_mutator(self) -> bool:
        """True if the operation may change the object state.

        Covering arguments only care about mutators: a pending *read*
        cannot erase anything, so only pending mutators make a register
        "covered".
        """
        return self in (OpKind.WRITE, OpKind.WRITE_MAX, OpKind.CAS)


class LowLevelOp:
    """One triggered low-level operation instance.

    ``respond_time is None`` while the operation is pending.  The result is
    computed when (and only when) the respond step executes.

    A ``__slots__`` class rather than a dataclass: one instance is
    allocated per trigger and its attributes are read on every kernel
    arrive/respond, so attribute storage is flat.  ``obj`` caches the
    kernel-local base object the op targets (filled in by
    ``Kernel.trigger``; ``None`` for ops rebuilt from the wire, whose
    effect is applied to a replica's object instead).  ``ready`` is True
    while the op sits in its kernel's ready list (its request reached a
    live object and it has not responded yet), so a duplicate arrival
    costs one attribute test.  ``runtime`` is the client runtime that
    triggered the op (set by ``Kernel.trigger`` when a runtime triggers
    it, as ``Context.trigger`` does), so a respond hands the response to
    its client by reference; ``None`` for an op triggered by a bare
    client id or rebuilt from the wire.
    """

    __slots__ = (
        "op_id",
        "client_id",
        "object_id",
        "kind",
        "args",
        "trigger_time",
        "respond_time",
        "result",
        "highlevel_seq",
        "obj",
        "ready",
        "runtime",
    )

    def __init__(
        self,
        op_id: OpId,
        client_id: ClientId,
        object_id: ObjectId,
        kind: "OpKind",
        args: tuple,
        trigger_time: int,
        respond_time: Optional[int] = None,
        result: Any = None,
        highlevel_seq: Optional[int] = None,
    ):
        self.op_id = op_id
        self.client_id = client_id
        self.object_id = object_id
        self.kind = kind
        self.args = args
        self.trigger_time = trigger_time
        self.respond_time = respond_time
        self.result = result
        #: The high-level operation (history sequence number) on whose
        #: behalf this low-level op was triggered, if any.  Analysis only.
        self.highlevel_seq = highlevel_seq
        self.obj = None
        self.ready = False
        self.runtime = None

    @property
    def pending(self) -> bool:
        return self.respond_time is None

    @property
    def is_mutator(self) -> bool:
        return self.kind.is_mutator

    def __str__(self) -> str:
        state = "pending" if self.pending else f"responded@{self.respond_time}"
        return (
            f"{self.op_id}:{self.kind.value}{self.args}"
            f" by {self.client_id} on {self.object_id} [{state}]"
        )


class BaseObject:
    """Common behaviour of all base object types.

    Subclasses define :attr:`SUPPORTED` (the op kinds they accept) and
    :meth:`_apply`, which mutates state and returns the result at respond
    time.  ``_apply(kind, args)`` takes the op's kind and arguments, not
    the op: it checks neither support nor crash, so its callers (the
    kernel's inlined respond, a socket replica) check first.
    ``SUPPORTED`` is a tuple: ``kind in SUPPORTED`` runs on every
    trigger, and tuple containment matches the enum member by identity
    where a set would first call ``Enum.__hash__``.
    """

    SUPPORTED: "Tuple[OpKind, ...]" = ()
    TYPE_NAME = "base"

    def __init__(self, object_id: ObjectId, initial_value: Any = None):
        self.object_id = object_id
        self.initial_value = initial_value
        self.value = initial_value
        self.crashed = False

    def supports(self, kind: OpKind) -> bool:
        return kind in self.SUPPORTED

    def check_supported(self, kind: OpKind) -> None:
        if not self.supports(kind):
            raise ModelViolation(
                f"{type(self).__name__} {self.object_id} does not support"
                f" {kind.value!r}"
            )

    def apply(self, op: LowLevelOp) -> Any:
        """Linearize ``op`` now (at its respond step) and return the result."""
        self.check_supported(op.kind)
        if self.crashed:
            raise ModelViolation(
                f"applying {op} to crashed object {self.object_id}"
            )
        return self._apply(op.kind, op.args)

    def _apply(self, kind: OpKind, args: tuple) -> Any:
        raise NotImplementedError

    def reset(self) -> None:
        """Restore the initial state (used by test harnesses)."""
        self.value = self.initial_value
        self.crashed = False

    def __str__(self) -> str:
        return f"{self.TYPE_NAME}({self.object_id}, value={self.value!r})"


class AtomicRegister(BaseObject):
    """A multi-writer multi-reader atomic read/write register.

    * ``write(v)`` sets the value and returns ``"ack"``.
    * ``read()`` returns the current value.

    The emulations additionally treat the value domain as opaque; Algorithm
    2 stores :class:`~repro.sim.values.TSVal` pairs in these registers.
    """

    SUPPORTED = (OpKind.READ, OpKind.WRITE)
    TYPE_NAME = "register"

    def _apply(self, kind: OpKind, args: tuple) -> Any:
        if kind is OpKind.WRITE:
            (new_value,) = args
            self.value = new_value
            return "ack"
        return self.value


class MaxRegister(BaseObject):
    """A max-register: values only grow.

    * ``write_max(v)`` sets ``value = max(value, v)`` and returns ``"ok"``.
    * ``read_max()`` returns the largest value written so far (or the
      initial value).

    The value domain must be totally ordered; emulations use
    :class:`~repro.sim.values.TSVal`.
    """

    SUPPORTED = (OpKind.READ_MAX, OpKind.WRITE_MAX)
    TYPE_NAME = "max-register"

    def _apply(self, kind: OpKind, args: tuple) -> Any:
        if kind is OpKind.WRITE_MAX:
            (new_value,) = args
            if self.value is None or new_value > self.value:
                self.value = new_value
            return "ok"
        return self.value


class CASObject(BaseObject):
    """A compare-and-swap object.

    ``cas(exp, new)``: if the current value equals ``exp`` the value becomes
    ``new``; either way the *old* value is returned (the Appendix B
    interface).  ``cas(v0, v0)`` with the initial value thus doubles as a
    read when the caller only inspects the return value.
    """

    SUPPORTED = (OpKind.CAS,)
    TYPE_NAME = "cas"

    def _apply(self, kind: OpKind, args: tuple) -> Any:
        expected, new_value = args
        previous = self.value
        if previous == expected:
            self.value = new_value
        return previous


_OBJECT_TYPES = {
    "register": AtomicRegister,
    "max-register": MaxRegister,
    "max_register": MaxRegister,
    "cas": CASObject,
}


def make_object(
    type_name: str, object_id: ObjectId, initial_value: Any = None
) -> BaseObject:
    """Factory for base objects by type name.

    Accepted names: ``"register"``, ``"max-register"`` (or
    ``"max_register"``), ``"cas"``.
    """
    try:
        cls = _OBJECT_TYPES[type_name]
    except KeyError:
        raise InvalidConfig(
            f"unknown base object type {type_name!r}"
        ) from None
    return cls(object_id, initial_value)
