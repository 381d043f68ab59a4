"""Client runtime: deterministic state machines as generator coroutines.

The paper models clients as deterministic state machines whose transitions
are actions (triggering low-level operations, executing return steps).  We
express client algorithms as Python generators:

* The algorithm's high-level operation (e.g. Algorithm 2's ``write``) is a
  generator function receiving a :class:`Context`.
* ``ctx.trigger(...)`` triggers a low-level operation and returns
  immediately — clients never block on base objects (base objects are
  crash-prone, so waiting on one would forfeit fault tolerance).
  ``ctx.trigger_each(object_ids, kind, *args)`` triggers the same
  operation on each object of a set, in order, in one call (a quorum
  round, Algorithm 2's lines 8-10).
* ``yield predicate`` suspends the coroutine until ``predicate()`` holds
  (the paper's ``wait until ...``); ``yield None`` yields one step.
  Wait predicates must be functions of *client-local* state — the
  protocol's own fields and task handles, which change only when this
  client takes a step or one of its low-level operations responds.  This
  is the paper's model (clients are deterministic state machines whose
  inputs are their own transitions), and the kernel's incremental
  scheduler relies on it: a blocked client's predicates are evaluated
  at each touch of the client, not on every global step.  A predicate
  reading global state (e.g. the kernel clock) is outside the model and
  would go stale between touches.
* ``upon receiving ... respond`` handlers are expressed by overriding
  :meth:`ClientProtocol.on_response`; they run atomically with the respond
  step (see DESIGN.md, "Modeling choices").
* ``ctx.spawn(gen)`` runs a sub-coroutine concurrently within the client
  (used by composed emulations such as ABD over CAS-based max-registers,
  where each per-server max-register operation is itself a loop of CAS
  invocations).

One kernel client-step advances exactly one runnable coroutine by one
yield, so client progress interleaves at the granularity the model
requires.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any, Callable, Deque, Dict, Generator, List, Optional, Sequence, Tuple,
)

from repro.errors import ModelViolation
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind

#: A client coroutine yields either ``None`` (take a step) or a zero-argument
#: predicate (resume when it returns True).
ClientCoroutine = Generator[Optional[Callable[[], bool]], None, Any]


class TaskHandle:
    """Handle on a spawned sub-coroutine (or, named by its operation
    alone, an operation's main task).  ``tallies``: the counters of the
    :meth:`Context.count_done` predicates it feeds."""

    __slots__ = ("name", "done", "result", "tallies")

    def __init__(self, name: str, done: bool = False, result: Any = None):
        self.name = name
        self.done = done
        self.result = result
        self.tallies: "Tuple[List[int], ...]" = ()

    def wait(self) -> Callable[[], bool]:
        """Predicate usable as ``yield handle.wait()``."""
        return lambda: self.done

    def __repr__(self) -> str:
        return (
            f"TaskHandle(name={self.name!r}, done={self.done},"
            f" result={self.result!r})"
        )


class _Task:
    """Internal bookkeeping for one coroutine (main or spawned)."""

    __slots__ = ("coroutine", "handle", "waiting")

    def __init__(self, coroutine: ClientCoroutine, handle: TaskHandle):
        self.coroutine = coroutine
        self.handle = handle
        self.waiting: Optional[Callable[[], bool]] = None


#: high-level operation name -> its method's attribute name, built once
#: per name rather than formatted per invocation
_OP_ATTRIBUTES: "Dict[str, str]" = {}


class ClientProtocol:
    """Base class for the client side of an emulation algorithm.

    Subclasses implement one generator method per high-level operation,
    named ``op_<name>`` (e.g. ``op_write``, ``op_read``), and may override
    :meth:`on_response` to handle low-level responds (Algorithm 2's
    ``upon receiving b.write(*) respond do`` blocks).
    """

    def make_operation(
        self, ctx: "Context", name: str, args: tuple
    ) -> ClientCoroutine:
        attribute = _OP_ATTRIBUTES.get(name)
        if attribute is None:
            attribute = _OP_ATTRIBUTES[name] = "op_" + name
        method = getattr(self, attribute, None)
        if method is None:
            raise ModelViolation(
                f"{type(self).__name__} has no high-level operation {name!r}"
            )
        return method(ctx, *args)

    def on_response(self, ctx: "Context", op: LowLevelOp) -> None:
        """Handle a respond of a low-level op triggered by this client."""


class Context:
    """The API surface a client algorithm sees.

    Wraps the kernel-facing runtime so algorithm code cannot reach into
    scheduler or adversary state.
    """

    __slots__ = ("_runtime",)

    def __init__(self, runtime: "ClientRuntime"):
        self._runtime = runtime

    @property
    def client_id(self) -> ClientId:
        return self._runtime.client_id

    @property
    def time(self) -> int:
        return self._runtime.kernel_time()

    def trigger(self, object_id: ObjectId, kind: OpKind, *args: Any) -> OpId:
        """Trigger a low-level operation; returns immediately."""
        # Straight to the kernel: one call frame per low-level op is
        # measurable on protocol-heavy runs.  The runtime rides on the op,
        # so its respond is delivered here without a client-id lookup.
        runtime = self._runtime
        op = runtime._kernel.trigger(
            runtime.client_id, object_id, kind, args, runtime.active_seq, runtime
        )
        op_id = op.op_id
        runtime.pending_ops.add(op_id)
        return op_id

    def trigger_each(
        self, object_ids: "Sequence[ObjectId]", kind: OpKind, *args: Any
    ) -> "List[OpId]":
        """Trigger ``kind(args)`` on each of ``object_ids``, in order, in
        one step; returns the op ids in that order.  The same ops, ids
        and events as one :meth:`trigger` per object, for one call.  An
        object the kernel refuses raises ``ModelViolation`` after the
        ops before it were triggered; those stay pending here too."""
        runtime = self._runtime
        trigger = runtime._kernel.trigger
        client_id, seq = runtime.client_id, runtime.active_seq
        op_ids = []
        try:
            for object_id in object_ids:
                op_ids.append(
                    trigger(client_id, object_id, kind, args, seq, runtime).op_id
                )
        finally:
            runtime.pending_ops.update(op_ids)
        return op_ids

    def spawn(self, coroutine: ClientCoroutine, name: str = "task") -> TaskHandle:
        """Run a sub-coroutine concurrently within this client."""
        return self._runtime.spawn(coroutine, name)

    @staticmethod
    def count_done(handles: "List[TaskHandle]", count: int) -> Callable[[], bool]:
        """Predicate: at least ``count`` of ``handles`` are done.  A handle
        done now counts at once, any other when its task finishes (it
        bumps the tally), so an evaluation walks no handle."""
        tally = [0]
        feeds = (tally,)
        for handle in handles:
            if handle.done:
                tally[0] += 1
            elif handle.tallies:
                handle.tallies += feeds
            else:
                handle.tallies = feeds

        def enough_done():
            return tally[0] >= count

        return enough_done


class ClientRuntime:
    """Kernel-side state of one client.

    Holds the protocol instance, the queue of not-yet-invoked high-level
    operations, and the active coroutines.  The kernel drives it through
    :meth:`step` and :meth:`deliver_response`; :meth:`enabled` is the
    from-scratch answer its oracle checks against.

    A ``__slots__`` class: one instance lives per client and its
    scheduling flags, owned by the kernel, are read at every touch of
    the client: ``_candidate`` (not crashed, an op in flight or queued),
    ``_fresh`` (an op in flight and a task awaiting no predicate) and
    ``_listed`` (in the kernel's enabled list).  A finished task leaves
    ``tasks`` at once.  The runtime itself is what a scheduler is
    offered as a client step.
    """

    __slots__ = (
        "client_id",
        "protocol",
        "context",
        "crashed",
        "program",
        "tasks",
        "active_seq",
        "active_name",
        "pending_ops",
        "duplicate_responses",
        "active_token",
        "on_complete",
        "_kernel",
        "_candidate",
        "_fresh",
        "_listed",
    )

    def __init__(self, client_id: ClientId, protocol: ClientProtocol):
        self.client_id = client_id
        self.protocol = protocol
        self.context = Context(self)
        self.crashed = False
        #: queue of (name, args, token) high-level invocations not yet
        #: started; token is an opaque caller tag carried to completion
        self.program: "Deque[Tuple[str, tuple, Any]]" = deque()
        #: active coroutines; index 0 is the main (high-level op) task
        self.tasks: "List[_Task]" = []
        #: sequence number of the in-flight high-level op, if any
        self.active_seq: Optional[int] = None
        self.active_name: Optional[str] = None
        #: ids of this client's pending low-level ops
        self.pending_ops: "set[OpId]" = set()
        #: duplicate response deliveries dropped (lossy transports only)
        self.duplicate_responses = 0
        #: token of the in-flight high-level op (session bookkeeping)
        self.active_token: Any = None
        #: optional completion callback ``(token, name, result) -> None``
        #: invoked on every high-level return — lets a service multiplex
        #: thousands of sessions over a client pool without scanning the
        #: history for their results
        self.on_complete: Optional[Callable[[Any, str, Any], None]] = None
        # wired by the kernel at registration:
        self._kernel = None
        # Scheduling flags, settled by the kernel at every touch.
        self._candidate = False
        self._fresh = False
        self._listed = False

    # -- wiring ------------------------------------------------------------

    def attach(self, kernel) -> None:
        self._kernel = kernel

    def kernel_time(self) -> int:
        return self._kernel.time

    # -- program -----------------------------------------------------------

    def enqueue(self, name: str, *args: Any, token: Any = None) -> None:
        """Schedule a high-level operation invocation.

        ``token`` is an opaque tag returned to :attr:`on_complete` when
        the operation finishes; the kernel never interprets it.
        """
        self.program.append((name, tuple(args), token))
        if self._kernel is not None:
            self._kernel._touch(self)

    @property
    def idle(self) -> bool:
        """True if no high-level operation is in flight."""
        return self.active_seq is None

    # -- steps visible to the kernel ----------------------------------------

    def enabled(self) -> bool:
        """Can this client take a step right now?"""
        if self.crashed:
            return False
        if self.idle:
            return bool(self.program)
        return any(task.waiting is None or task.waiting() for task in self.tasks)

    def step(self) -> None:
        """Execute one client step: start the next op, or advance one task."""
        if self.crashed:
            raise ModelViolation(f"step on crashed client {self.client_id}")
        if self.active_seq is None:  # idle
            # The invocation also runs the operation's first segment (up
            # to its first wait), so triggers issued unconditionally at
            # the start of an operation happen atomically with it.
            self._start_next_operation()
        # First runnable task: this scan plus one coroutine resume runs
        # on every client step.
        for task in self.tasks:
            waiting = task.waiting
            if waiting is None or waiting():
                task.waiting = None
                try:
                    yielded = next(task.coroutine)
                except StopIteration as stop:
                    self._finish_task(task, stop.value)
                    return
                if yielded is not None and not callable(yielded):
                    raise TypeError(
                        f"client coroutine yielded {yielded!r}; expected"
                        " a predicate or None"
                    )
                task.waiting = yielded
                return
        raise ModelViolation(f"no runnable task on {self.client_id}")

    def _start_next_operation(self) -> None:
        name, args, token = self.program.popleft()
        seq = self._kernel.record_invoke(self.client_id, name, args)
        self.active_seq = seq
        self.active_name = name
        self.active_token = token
        coroutine = self.protocol.make_operation(self.context, name, args)
        self.tasks = [_Task(coroutine, TaskHandle(name))]

    def _finish_task(self, task: _Task, result: Any) -> None:
        handle = task.handle
        handle.done = True
        handle.result = result
        for tally in handle.tallies:
            tally[0] += 1
        if self.tasks and task is self.tasks[0]:
            # Main task: the high-level operation returns.
            seq, name = self.active_seq, self.active_name
            token = self.active_token
            self.active_seq = None
            self.active_name = None
            self.active_token = None
            self.tasks = []
            self._kernel.record_return(self.client_id, seq, name, result)
            if self.on_complete is not None:
                self.on_complete(token, name, result)
        else:
            self.tasks.remove(task)

    # -- low-level operations ------------------------------------------------

    def spawn(self, coroutine: ClientCoroutine, name: str) -> TaskHandle:
        """Add a task; the client is fresh from here on (the new task
        awaits no predicate).  Spawn is the only flag-changing call a
        respond handler can make, so ``Kernel._settle`` settles a
        delivery from ``_fresh`` and the predicates alone."""
        if self.active_seq is None:  # idle
            raise ModelViolation("spawn outside a high-level operation")
        handle = TaskHandle(name=name)
        self.tasks.append(_Task(coroutine, handle))
        self._fresh = True
        return handle

    def deliver_response(self, op: LowLevelOp) -> None:
        """Called by the kernel when one of our low-level ops responds.

        Idempotent per operation: a lossy transport may deliver the same
        response twice (duplication faults), and ``on_response`` handlers
        are not required to cope — the second copy is counted and
        dropped.  Responses only ever follow a trigger by this client, so
        ``pending_ops`` membership is exactly "not yet delivered".
        """
        try:
            self.pending_ops.remove(op.op_id)
        except KeyError:
            self.duplicate_responses += 1
            return
        if self.crashed:
            return
        self.protocol.on_response(self.context, op)

    # -- failures -------------------------------------------------------------

    def crash(self) -> None:
        self.crashed = True
        self.tasks = []
        self.program.clear()
        if self._kernel is not None:
            self._kernel._touch(self)
