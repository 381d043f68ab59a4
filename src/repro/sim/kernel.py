"""The simulation kernel: configurations, steps.

A run of an emulation algorithm is an alternating sequence of
configurations and steps (Appendix A.4).  The kernel executes one step
at a time; the step counter is the paper's notion of time ``t``.  A step
is one of two things:

* a client step — a client invokes its next high-level operation, or
  advances one of its runnable coroutines (triggering low-level
  operations and/or executing a return action);
* a respond — a pending low-level operation on a correct base object
  responds, *taking effect at that instant* (Assumption 1).

Each step of :meth:`Kernel.run` offers its scheduler the enabled client
runtimes and the ready low-level ops, and runs the one at the index
:meth:`Scheduler.pick <repro.sim.scheduling.Scheduler.pick>` returns into
the two laid end to end; there is no other name for a step.  An
:class:`Environment` may veto ready ops — exactly the adversary's power
in the lower-bound proof (Definition 3: a blocked write "does not
respond at t").  Fairness (Definition of fair runs) is then a property
of the scheduler plus environment: every non-vetoed enabled step is
eventually taken.

Scheduling is *incremental*: the kernel maintains the enabled client set
and the respondable pending-op set as live data structures, updated at the
events that change them (trigger, respond, enqueue, crash, coroutine
wait/wake) instead of recomputing them from scratch every step.
:meth:`Kernel.enabled_steps` remains the from-scratch oracle — tests
step a kernel through it one step at a time, and
:meth:`Kernel.check_incremental` asserts the two views agree (see
``docs/MODEL.md``, "Performance", for the invariants).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from heapq import merge
from operator import attrgetter
from typing import Any, Callable, DefaultDict, Dict, Iterator, List, Optional, Tuple

from repro.errors import InvalidConfig, ModelViolation
from repro.sim.client import ClientProtocol, ClientRuntime
from repro.sim.events import (
    CrashEvent,
    EventListener,
    InvokeEvent,
    RespondEvent,
    ReturnEvent,
    TriggerEvent,
)
from repro.sim.ids import ClientId, ObjectId, OpId, ServerId
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.server import ObjectMap


class Environment:
    """Hook allowing an adversary to constrain the run.

    The default environment allows everything (failure-free, fully
    asynchronous).  Subclasses override :meth:`allows` to veto responds:
    the kernel hands it each ready low-level op (pending, its request
    arrived, its object live).  Vetoing client steps is not permitted by
    the model (clients always get opportunities to take steps in fair
    runs), so the environment is never asked about them.
    """

    def allows(self, op: LowLevelOp, kernel: "Kernel") -> bool:
        return True

    def on_stall(self, kernel: "Kernel") -> bool:
        """Called when no client is enabled and every ready op is vetoed.

        Return True to have the kernel re-evaluate (the environment should
        have relaxed something); False means the block is intentional and
        the run ends with reason ``"blocked"``.  The lower-bound adversary
        keeps the default (blocking is its purpose); chaotic/latency
        environments override this to preserve liveness.
        """
        return False


#: A recording log keeps a base object's ops while it has at most this
#: many.  The substrate audit reads a projection ``r|b`` only up to its
#: cap (:data:`repro.analysis.baseobject_audit.MAX_AUDITED_OPS`, well
#: below this), so past the limit the log drops that object's ops and
#: counts its triggers only: a long run's log stays bounded by
#: ``objects * RECORDED_OPS_PER_OBJECT``.
RECORDED_OPS_PER_OBJECT = 512

_op_id = attrgetter("op_id")
_client_index = attrgetter("client_id.index")
_Projections = DefaultDict[int, Optional[List[LowLevelOp]]]


class OpLog(Mapping):
    """The low-level operations a kernel triggered, keyed by op id.

    ``len()`` is the number of ops triggered: op ids are dense from 0 in
    trigger order, and the next trigger takes id ``len(log)``.  The ops
    themselves are kept only once :meth:`record` was called, before the
    first trigger; otherwise the kernel holds only the pending ones
    (``Kernel.pending``) and a finished op is freed as soon as its
    client is done with it.

    A recording log keeps each base object's projection ``r|b`` (its ops
    in id order, :meth:`projection`) while it has at most
    :data:`RECORDED_OPS_PER_OBJECT` ops; one more trigger drops that
    object's ops for the rest of the run.  While nothing was dropped the
    log is a read-only ``Mapping[OpId, LowLevelOp]``: iteration,
    ``keys()``, ``values()`` and ``items()`` run in op-id order, and any
    key that is not a triggered op id (unknown, negative, not an
    ``int``) raises ``KeyError``, as a dict would.  On a log that does
    not record, or that dropped any object's ops, every lookup and
    iteration raises ``ModelViolation``: an empty or partial answer
    would let an audit over it pass vacuously.
    """

    __slots__ = ("_projections", "_count")

    def __init__(self) -> None:
        #: object index -> its triggered ops in id order (None once
        #: dropped: the trigger hook tells the two apart with one identity
        #: test), or None while not recording.  Keyed by the plain int,
        #: which hashes in C, not by the ObjectId, whose ``__hash__`` is a
        #: Python call on every trigger (3% of ``kernel_ws_medium``'s
        #: ``unloaded_ms``).
        self._projections: "Optional[_Projections]" = None
        self._count = 0

    def record(self) -> None:
        """Keep the ops the kernel triggers (per object, up to
        :data:`RECORDED_OPS_PER_OBJECT`): the run from its start, so it
        is refused once anything was triggered."""
        if self._count:
            raise ModelViolation(
                "OpLog.record after operations were triggered; recording"
                " must start before the run does"
            )
        self._projections = defaultdict(list)

    @property
    def recording(self) -> bool:
        return self._projections is not None

    def _recorded(self) -> "_Projections":
        projections = self._projections
        if projections is None:
            raise ModelViolation(
                "this kernel's op log does not record: it keeps only the"
                " pending ops (call kernel.ops.record() before the run)"
            )
        return projections

    def projection(self, object_id: ObjectId) -> "Optional[List[LowLevelOp]]":
        """The ops triggered on ``object_id`` in op-id order (a copy), or
        None once there were more than :data:`RECORDED_OPS_PER_OBJECT`
        and the log dropped them.  Raises ``ModelViolation`` on a log
        that does not record."""
        ops = self._recorded().get(object_id.index, ())
        return None if ops is None else list(ops)

    def _whole(self) -> "List[List[LowLevelOp]]":
        """Every projection, refused unless the log kept every op."""
        projections = self._recorded()
        dropped = [index for index, ops in projections.items() if ops is None]
        if dropped:
            raise ModelViolation(
                f"this kernel's op log dropped the ops of {ObjectId(dropped[0])}"
                f" after its first {RECORDED_OPS_PER_OBJECT}"
                f" ({len(dropped)} object(s) dropped): it no longer holds"
                " the whole run"
            )
        return list(projections.values())

    def __getitem__(self, op_id: Any) -> LowLevelOp:
        projections = self._whole()
        if isinstance(op_id, int) and 0 <= op_id < self._count:
            for ops in projections:
                index = bisect_left(ops, op_id, key=_op_id)
                if index < len(ops) and ops[index].op_id == op_id:
                    return ops[index]
        raise KeyError(op_id)

    def __iter__(self) -> "Iterator[OpId]":
        return (op.op_id for op in merge(*self._whole(), key=_op_id))

    def __len__(self) -> int:
        return self._count


@dataclass
class RunResult:
    """Outcome of :meth:`Kernel.run`."""

    steps: int
    reason: str  # "until" | "quiescent" | "blocked" | "max_steps"

    @property
    def satisfied(self) -> bool:
        return self.reason == "until"


#: Process-wide count of kernel steps executed via :meth:`Kernel.run`,
#: across every kernel instance.  The parallel experiment engine
#: (:mod:`repro.exec`) reads deltas of this to report how much simulation
#: each cell actually performed — a cache hit shows up as zero steps.
_TOTAL_STEPS = 0


def steps_simulated() -> int:
    """Total steps run by any kernel in this process (monotone)."""
    return _TOTAL_STEPS


#: (EventListener hook name, Kernel subscriber-list attribute).
_HOOK_ATTRS = (
    ("on_trigger", "_subs_trigger"),
    ("on_respond", "_subs_respond"),
    ("on_invoke", "_subs_invoke"),
    ("on_return", "_subs_return"),
    ("on_crash", "_subs_crash"),
    ("on_step", "_subs_step"),
)


class Kernel:
    """Executes runs over an :class:`~repro.sim.server.ObjectMap`.

    Responsibilities: track pending low-level operations, compute the
    enabled steps, apply the scheduler/environment, take steps, publish
    events, and provide imperative controls (crashes, forced steps) used
    by the lower-bound run constructions.

    Incremental bookkeeping (see ``docs/MODEL.md``, "Performance"):

    * ``_enabled`` — the enabled client runtimes in ascending client-id
      order, each with ``runtime._listed`` set while it is there.  Each
      touch of a client settles it in one frame: a step of, enqueue on,
      crash of or registration of it in :meth:`_touch`, a response
      delivered to it in :meth:`_settle`.  A client that is
      ``runtime._fresh`` (a task awaits no predicate) is enabled without
      evaluating one; otherwise its predicates are evaluated there and
      then.  A flip inserts by ``bisect`` or removes in place;
    * ``_ready`` — the respondable ops (pending, request arrived, object
      live) in ascending op-id order, each with ``op.ready`` set.  A
      trigger on the in-process transport appends, :meth:`arrive`
      inserts with ``bisect``, a respond or a server crash removes in
      place;
    * ``_candidate_count`` (clients flagged ``runtime._candidate``: all
      but crashed / idle-with-empty-program ones) and ``_crashed_mid_op``
      (clients crashed with a high-level operation in flight) answer
      :meth:`clients_quiescent` without visiting a client.

    Each step of :meth:`run` hands the two lists (never rebound, so the
    references it hoists stay valid) to ``scheduler.pick``, the ready one
    filtered through a vetoing environment, and takes the step at the
    index it returns into the two laid end to end.
    """

    def __init__(
        self, object_map: ObjectMap, scheduler, environment=None, transport=None
    ):
        self.object_map = object_map
        self.scheduler = scheduler
        self.environment = environment or Environment()
        # Imported here: repro.net sits above the kernel in the layer
        # diagram (transports call back into arrive/deliver), so the
        # module-level import would be circular.
        from repro.net.transport import InProcTransport

        if transport is None:
            transport = InProcTransport()
        self.transport = transport
        transport.bind(self)
        # With the plain in-process transport both message legs are
        # immediate, so trigger() and run() inline them when this flag is
        # set; any other transport, a subclass included, goes through
        # send_request / send_response (kept current by set_transport).
        self._inproc = type(transport) is InProcTransport
        self.time = 0
        # Direct alias of the object map's index->object table (mutated
        # in place, never rebound): trigger() resolves the target object
        # on every low-level op, so the lookup skips a method call and
        # hashes the plain int, not the ObjectId.
        self._objects = object_map._objects
        self.clients: "Dict[ClientId, ClientRuntime]" = {}
        self.ops = OpLog()
        self.pending: "Dict[OpId, LowLevelOp]" = {}
        self.listeners: "List[EventListener]" = []
        self._next_seq = 0
        #: Enabled client runtimes in ascending client-id order; each has
        #: ``runtime._listed`` set.
        self._enabled: "List[ClientRuntime]" = []
        self._candidate_count = 0  # clients flagged runtime._candidate
        # Clients that crashed with a high-level operation in flight.
        self._crashed_mid_op = 0
        #: Respondable ops (pending, arrived, on a live object), in
        #: ascending op-id order; each has ``op.ready`` set.
        self._ready: "List[LowLevelOp]" = []
        # Pre-bound listener hooks (populated by add_listener).
        self._subs_trigger: "List[Callable]" = []
        self._subs_respond: "List[Callable]" = []
        self._subs_invoke: "List[Callable]" = []
        self._subs_return: "List[Callable]" = []
        self._subs_crash: "List[Callable]" = []
        self._subs_step: "List[Callable]" = []

    # -- setup ---------------------------------------------------------------

    def set_transport(self, transport) -> None:
        """Swap the transport in before the run starts.

        Exists so :meth:`EmulationSpec.build <repro.core.emulation.EmulationSpec.build>`
        can attach the configured transport after the emulation
        constructor wired the kernel.  Swapping mid-run would strand
        in-flight messages, so it is refused once anything was triggered.
        """
        if self.ops:
            raise ModelViolation(
                "set_transport after operations were triggered; the"
                " transport must be in place before the run starts"
            )
        from repro.net.transport import InProcTransport

        self.transport = transport
        transport.bind(self)
        self._inproc = type(transport) is InProcTransport

    def add_client(
        self, client_id: ClientId, protocol: ClientProtocol
    ) -> ClientRuntime:
        if client_id in self.clients:
            raise InvalidConfig(f"duplicate client {client_id}")
        runtime = ClientRuntime(client_id, protocol)
        runtime.attach(self)
        self.clients[client_id] = runtime
        self._touch(runtime)
        return runtime

    def add_listener(self, listener: EventListener) -> None:
        """Subscribe a listener, pre-binding only the hooks it overrides.

        Hooks left at the :class:`~repro.sim.events.EventListener`
        defaults are skipped entirely at dispatch time (no call, and no
        event-record allocation when a hook has no subscriber at all), so
        narrow listeners cost nothing on the hooks they ignore.  Hooks
        must therefore be in place *before* the listener is added —
        methods attached to the instance afterwards are not discovered.
        """
        self.listeners.append(listener)
        for hook, attr in _HOOK_ATTRS:
            bound = getattr(listener, hook, None)
            if bound is None:
                continue
            base = getattr(EventListener, hook)
            if getattr(bound, "__func__", bound) is base:
                continue  # not overridden — never dispatch to it
            getattr(self, attr).append(bound)

    def remove_listener(self, listener: EventListener) -> None:
        """Unsubscribe a listener added with :meth:`add_listener`.

        Reverses the pre-bound dispatch registration too (bound methods
        compare equal by ``__self__``/``__func__``, so the hooks captured
        at add time are found again here).  Raises ``ValueError`` if the
        listener was never added.
        """
        self.listeners.remove(listener)
        for hook, attr in _HOOK_ATTRS:
            bound = getattr(listener, hook, None)
            if bound is None:
                continue
            base = getattr(EventListener, hook)
            if getattr(bound, "__func__", bound) is base:
                continue
            subs = getattr(self, attr)
            try:
                subs.remove(bound)
            except ValueError:
                pass  # hook was attached after add_listener — never bound

    # -- incremental client bookkeeping ---------------------------------------

    def _touch(self, runtime: ClientRuntime) -> None:
        """Settle a client after a step of, enqueue on, crash or
        registration of it: its flags, the two counts and its place in
        :attr:`_enabled`.  A fresh client is enabled; otherwise its wait
        predicates are evaluated in task order until one holds.  They
        read only client-local state (see :mod:`repro.sim.client`), so
        the answer holds until the client is touched again.
        """
        fresh = enabled = False
        if runtime.crashed:
            candidate = False
        elif runtime.active_seq is None:
            candidate = enabled = bool(runtime.program)
        else:
            candidate = True
            for task in runtime.tasks:
                if task.waiting is None:
                    fresh = enabled = True
                    break
            else:
                for task in runtime.tasks:
                    if task.waiting():
                        enabled = True
                        break
        runtime._fresh = fresh
        if candidate is not runtime._candidate:
            runtime._candidate = candidate
            if candidate:
                self._candidate_count += 1
            else:
                self._candidate_count -= 1
                if runtime.active_seq is not None:
                    # Only a crash disables a client mid-operation, and a
                    # crashed client never rejoins: counted exactly once.
                    self._crashed_mid_op += 1
        if enabled is not runtime._listed:
            runtime._listed = enabled
            if enabled:
                insort(self._enabled, runtime, key=_client_index)
            else:
                self._enabled.remove(runtime)

    def _settle(self, runtime: ClientRuntime) -> None:
        """Settle a client after a response was delivered to it.  A
        delivery flips no flag but ``_fresh`` (a respond handler's
        ``spawn`` sets it) and leaves an idle client as it was."""
        if runtime._fresh:
            enabled = True
        elif runtime.active_seq is None:
            return
        else:
            enabled = False
            for task in runtime.tasks:
                if task.waiting():
                    enabled = True
                    break
        if enabled is not runtime._listed:
            runtime._listed = enabled
            if enabled:
                insort(self._enabled, runtime, key=_client_index)
            else:
                self._enabled.remove(runtime)

    def clients_settled(self) -> bool:
        """Every client is crashed, or idle with nothing queued.  O(1).

        No client will step again until something is enqueued; low-level
        operations may still be pending (they are covering).
        """
        return not self._candidate_count

    def clients_quiescent(self) -> bool:
        """No high-level operation is in flight or queued.  O(1).

        :meth:`clients_settled`, and no client crashed mid-operation: an
        operation orphaned by a crash stays in flight forever, so a run
        waiting on this predicate ends ``"quiescent"`` / ``"blocked"``,
        never ``"until"``.  Usable directly as ``run(until=...)``.
        """
        return not self._candidate_count and not self._crashed_mid_op

    # -- low-level operation lifecycle ------------------------------------------

    def trigger(
        self,
        client_id: ClientId,
        object_id: ObjectId,
        kind: OpKind,
        args: tuple,
        highlevel_seq: Optional[int],
        runtime: Optional[ClientRuntime] = None,
    ) -> LowLevelOp:
        """Trigger a low-level operation (called from client runtimes).

        ``runtime`` is the triggering client's runtime, kept as
        ``op.runtime`` so the respond reaches it by reference; left
        ``None`` (a trigger by bare client id), it is resolved here, once,
        as ``self.clients.get(client_id)``.  The object is resolved by
        ``object_id.index`` alone, the type not checked on this path:
        pass an ``ObjectId``.  An index this kernel's object map does not
        hold raises ``ModelViolation``.
        """
        if runtime is None:
            runtime = self.clients.get(client_id)
        try:
            obj = self._objects[object_id.index]
        except KeyError:
            raise ModelViolation(f"trigger on unknown object {object_id}") from None
        if kind not in obj.SUPPORTED:
            obj.check_supported(kind)  # raises with the precise message
        log = self.ops
        count = log._count
        op_id = OpId(count)  # ids are dense: the id is the trigger count
        log._count = count + 1
        op = LowLevelOp(
            op_id, client_id, object_id, kind, args, self.time, None, None,
            highlevel_seq,
        )
        op.obj = obj  # cache the kernel-local object for the respond step
        op.runtime = runtime
        projections = log._projections
        if projections is not None:
            index = object_id.index
            kept = projections[index]
            if kept is not None:
                kept.append(op)
                if len(kept) > RECORDED_OPS_PER_OBJECT:
                    projections[index] = None  # drop, free its ops
        self.pending[op_id] = op
        # The request leg belongs to the transport: the op becomes
        # respondable when (and if) the transport delivers it via
        # arrive().  For the plain in-process transport that leg is an
        # immediate arrive(), inlined here: the op is pending, not a
        # duplicate and has the largest id yet (so appending keeps the
        # order), and a crashed object silently swallows the request.
        if self._inproc:
            if not obj.crashed:
                op.ready = True
                self._ready.append(op)
        else:
            self.transport.send_request(op)
        if self._subs_trigger:
            event = TriggerEvent(self.time, op)
            for emit in self._subs_trigger:
                emit(event)
        return op

    def arrive(self, op_id: OpId) -> None:
        """A request leg reached its server: the op becomes respondable.

        Transport-facing.  Tolerates duplicate arrivals, arrivals for ops
        that already responded, and arrivals at crashed objects (all
        no-ops).  The op joins the ready list at its op-id position by
        ``bisect``: an in-order arrival lands at the tail, one that a
        lossy transport delivers late lands below it.  (The in-process
        transport's immediate arrival is inlined in :meth:`trigger`.)
        """
        op = self.pending.get(op_id)
        if op is None or op.ready:
            return  # already responded, or a duplicate delivery
        obj = op.obj
        if obj is None:
            obj = self.object_map.object(op.object_id)
        if obj.crashed:
            return  # arrived at a dead server: never respondable
        op.ready = True
        insort(self._ready, op, key=_op_id)

    def _respond(self, op: LowLevelOp) -> None:
        transport = self.transport
        if transport.remote:
            # The effect was applied by the remote replica; the kernel's
            # local objects are an unconsulted shadow.
            op.result = transport.result_for(op)
        else:
            obj = op.obj
            if obj is None:  # op not triggered here (e.g. wire-decoded)
                obj = self.object_map.object(op.object_id)
            op.result = obj.apply(op)
        op.respond_time = self.time
        del self.pending[op.op_id]
        op.ready = False  # force_respond takes only ready ops
        self._ready.remove(op)
        if self._subs_respond:
            event = RespondEvent(self.time, op)
            for emit in self._subs_respond:
                emit(event)
        # The response leg belongs to the transport: the client learns of
        # the respond when (and if) the transport delivers it.
        transport.send_response(op)

    def deliver(self, op: LowLevelOp) -> None:
        """A response leg reached its client (transport-facing).

        A delivery can flip only the client's wait predicates and, by a
        respond handler's ``spawn``, its ``_fresh`` flag (see
        :meth:`ClientRuntime.spawn`), so :meth:`_settle` re-reads just
        those.  The client is ``op.runtime``; an op whose client id named
        no registered client at its trigger has none, and its response is
        dropped.
        """
        client = op.runtime
        if client is not None:
            client.deliver_response(op)
            self._settle(client)

    # -- high-level operation recording ------------------------------------------

    def record_invoke(self, client_id: ClientId, name: str, args: tuple) -> int:
        seq = self._next_seq
        self._next_seq += 1
        if self._subs_invoke:
            event = InvokeEvent(self.time, client_id, seq, name, args)
            for emit in self._subs_invoke:
                emit(event)
        return seq

    def record_return(
        self, client_id: ClientId, seq: int, name: str, result: Any
    ) -> None:
        if self._subs_return:
            event = ReturnEvent(self.time, client_id, seq, name, result)
            for emit in self._subs_return:
                emit(event)

    # -- failures -------------------------------------------------------------------

    def crash_server(self, server_id: ServerId) -> None:
        """Crash a server and all base objects mapped to it; an unknown
        server raises ``ModelViolation``."""
        try:
            crashed = self.object_map.crash_server(server_id)
        except KeyError:
            raise ModelViolation(f"crash of unknown server {server_id}") from None
        if crashed:
            gone = set(crashed)
            ready = self._ready
            for op in ready:
                if op.object_id in gone:
                    op.ready = False
            ready[:] = [op for op in ready if op.ready]
            self.transport.on_server_crash(server_id, crashed)
        if self._subs_crash:
            event = CrashEvent(self.time, server_id=server_id)
            for emit in self._subs_crash:
                emit(event)

    def crash_client(self, client_id: ClientId) -> None:
        """Crash a client; its pending low-level ops remain pending.  An
        unknown client raises ``ModelViolation``."""
        try:
            runtime = self.clients[client_id]
        except KeyError:
            raise ModelViolation(f"crash of unknown client {client_id}") from None
        runtime.crash()
        if self._subs_crash:
            event = CrashEvent(self.time, client_id=client_id)
            for emit in self._subs_crash:
                emit(event)

    # -- enabled steps ---------------------------------------------------------------

    def enabled_steps(self) -> "Tuple[List[ClientRuntime], List[LowLevelOp]]":
        """The enabled client runtimes and the respondable pending ops.

        Deterministically ordered (clients by id, ops by op id) so a
        seeded scheduler yields reproducible runs.  This is the
        from-scratch *oracle*: it rebuilds both lists by inspecting every
        client and pending op, independent of the incremental state, and
        consults no environment.
        """
        clients = [
            runtime
            for _, runtime in sorted(self.clients.items())
            if runtime.enabled()
        ]
        arrived = self.transport.request_arrived
        responds = [
            op
            for _, op in sorted(self.pending.items())
            if not self.object_map.object(op.object_id).crashed and arrived(op)
        ]
        return clients, responds

    def _enabled_clients(self) -> "List[ClientRuntime]":
        """A copy of the enabled client runtimes (:attr:`_enabled`), in
        ascending client-id order.

        With :attr:`_ready` these are the same steps, in the same order,
        as :meth:`enabled_steps` whenever wait predicates are functions of
        client-local state (the model's contract — see
        :mod:`repro.sim.client`).
        """
        return list(self._enabled)

    def _allowed_ready(self) -> "List[LowLevelOp]":
        """The ready ops the environment does not veto, in op-id order.

        :meth:`run`'s veto filter: the environment is consulted for every
        ready op on every call (an environment that wants to memoize its
        verdicts does so itself, as the lower-bound adversary does per
        covering-state version).
        """
        allows = self.environment.allows
        return [op for op in self._ready if allows(op, self)]

    def check_incremental(self) -> None:
        """Assert the incremental state matches the from-scratch oracles.

        Raises ModelViolation when the incrementally-maintained enabled
        steps — the enabled runtimes plus the ready list, in order —
        diverge from a from-scratch :meth:`enabled_steps` rebuild (compared
        by client and op id), when the ops flagged ``ready`` are not
        exactly the ready list or the runtimes flagged ``_listed`` not
        exactly the enabled list, when the candidate count (which
        :meth:`clients_settled` reads), :meth:`clients_quiescent` or the
        runtimes flagged ``_candidate`` / ``_fresh`` diverge from a scan
        of every client, or when a runtime holds a done task.
        Used by the property tests; safe to call between steps of a run.
        """
        clients = self.clients.values()
        live = [c for c in clients if not c.crashed]
        oracle_clients, oracle_responds = self.enabled_steps()
        views = (
            (
                "enabled-step state",
                (
                    [runtime.client_id for runtime in self._enabled_clients()],
                    [op.op_id for op in self._ready],
                ),
                (
                    [runtime.client_id for runtime in oracle_clients],
                    [op.op_id for op in oracle_responds],
                ),
            ),
            (
                "ready flags",
                [op.op_id for op in self._ready],
                sorted(op_id for op_id, op in self.pending.items() if op.ready),
            ),
            (
                "enabled flags",
                [runtime.client_id for runtime in self._enabled],
                sorted(cid for cid, runtime in self.clients.items() if runtime._listed),
            ),
            (
                "candidate count",
                self._candidate_count,
                sum(not (c.crashed or (c.idle and not c.program)) for c in clients),
            ),
            (
                "clients_quiescent()",
                self.clients_quiescent(),
                all(c.idle and not c.program for c in clients),
            ),
            (
                "candidate flags",
                [c.client_id for c in clients if c._candidate],
                [c.client_id for c in live if c.program or not c.idle],
            ),
            (
                "fresh flags",
                [c.client_id for c in clients if c._fresh],
                [
                    c.client_id
                    for c in live
                    if not c.idle and any(t.waiting is None for t in c.tasks)
                ],
            ),
            (
                "done tasks",
                [t.handle for c in clients for t in c.tasks if t.handle.done],
                [],
            ),
        )
        for name, fast, oracle in views:
            if fast != oracle:
                raise ModelViolation(
                    f"incremental {name} diverged from the oracle"
                    f" at t={self.time}:\n  incremental: {fast}"
                    f"\n  oracle:      {oracle}"
                )

    # -- execution ------------------------------------------------------------

    def force_client_step(self, client_id: ClientId) -> None:
        """Imperatively take a step of client ``client_id`` and advance
        time by one (run-construction tool).  The runtime refuses a step
        of a crashed client or of one with nothing runnable; an unknown
        client raises ``ModelViolation``."""
        try:
            runtime = self.clients[client_id]
        except KeyError:
            raise ModelViolation(f"step of unknown client {client_id}") from None
        self.time += 1
        try:
            runtime.step()
        finally:
            self._touch(runtime)
        for emit in self._subs_step:
            emit(self.time)

    def force_respond(self, op_id: OpId) -> None:
        """Imperatively respond op ``op_id`` and advance time by one
        (run-construction tool).  Only a ready op (:attr:`_ready`) may
        respond: one that is not pending, whose request has not arrived,
        or that sits on a crashed object is refused with
        ``ModelViolation``, which names the cause."""
        op = self.pending.get(op_id)
        if op is None:
            raise ModelViolation(f"{op_id} is not pending")
        if not op.ready:
            obj = op.obj
            if obj is None:
                obj = self.object_map.object(op.object_id)
            if obj.crashed:
                raise ModelViolation(f"respond on crashed object: {op}")
            raise ModelViolation(f"respond before the request arrived: {op}")
        self.time += 1
        self._respond(op)
        for emit in self._subs_step:
            emit(self.time)

    def run(
        self,
        max_steps: int = 100_000,
        until: Optional[Callable[["Kernel"], bool]] = None,
    ) -> RunResult:
        """Run under the scheduler/environment: the one stepping loop.

        Stops when ``until(kernel)`` holds, when no step is enabled
        (``"quiescent"``), when no client is enabled and every ready op
        is vetoed (``"blocked"``), or after ``max_steps`` steps.

        Each step hands ``scheduler.pick`` the enabled runtimes
        (:attr:`_enabled`) and the ready list as they stand, the latter
        filtered through the environment's veto (:meth:`_allowed_ready`)
        when it has one, then runs the runtime or op at the index it
        returns; an index outside the offered steps raises
        ``ModelViolation``.  The scheduler, environment and transport
        are read once per call (swap them between calls, not from inside
        one), which decides the two optional hooks: the veto filter and
        ``on_stall`` run only when the environment overrides
        :meth:`Environment.allows`, ``pump`` / ``flush_idle`` only when
        the transport is ``active``.
        Taking the pick is :meth:`force_client_step` /
        :meth:`force_respond` inlined, :meth:`_respond` included: a
        respond takes its result from the local object (or, on a
        ``remote`` transport, from ``transport.result_for``), does the
        bookkeeping here, then hands the response leg to
        ``transport.send_response`` — or, for the plain in-process
        transport, delivers it inline to ``op.runtime`` (as
        :meth:`deliver` does).  :meth:`_respond` itself serves
        :meth:`force_respond`.
        The structures hoisted here are mutated in place by the event
        handlers, never rebound, so the locals stay current as crash
        plans and listeners fire mid-run.  See ``docs/MODEL.md``,
        "Performance".
        """
        environment = self.environment
        vetoing = type(environment).allows is not Environment.allows
        transport = self.transport if self.transport.active else None
        remote = self.transport.remote
        result_for = self.transport.result_for
        send_response = self.transport.send_response
        inproc = self._inproc
        ready = self._ready
        pending = self.pending
        enabled = self._enabled
        pick = self.scheduler.pick
        touch = self._touch
        settle = self._settle
        allowed_ready = self._allowed_ready
        subs_step = self._subs_step
        subs_respond = self._subs_respond
        steps = 0
        try:
            while steps < max_steps:
                if until is not None and until(self):
                    return RunResult(steps, "until")
                if transport is not None:
                    transport.pump()
                count = len(enabled)
                responds = ready
                if not count and not ready:
                    if transport is not None and transport.flush_idle():
                        continue  # a delivery landed: re-evaluate
                    return RunResult(steps, "quiescent")
                if vetoing:
                    responds = allowed_ready()
                    if not count and not responds:
                        if environment.on_stall(self):
                            count = len(enabled)
                            responds = allowed_ready()
                        if not count and not responds:
                            if transport is not None and transport.flush_idle():
                                continue  # an in-flight delivery may unblock
                            return RunResult(steps, "blocked")
                index = pick(enabled, responds, self)
                time = self.time = self.time + 1
                if 0 <= index < count:
                    runtime = enabled[index]
                    try:
                        runtime.step()
                    finally:
                        touch(runtime)
                else:
                    index -= count
                    if not 0 <= index < len(responds):
                        raise ModelViolation(
                            f"scheduler picked step {index + count}, outside"
                            f" the {count + len(responds)} offered"
                        )
                    op = responds[index]
                    if responds is ready:
                        del ready[index]
                    else:
                        ready.remove(op)
                    op.ready = False
                    # Inlined _respond().  A remote replica applied the
                    # op already; otherwise support was checked at
                    # trigger, and a ready op sits on a live object
                    # (crash_server drops the ops of the objects it
                    # crashes), so the wrapper re-checks in
                    # BaseObject.apply are redundant.
                    if remote:
                        op.result = result_for(op)
                    else:
                        op.result = op.obj._apply(op.kind, op.args)
                    op.respond_time = time
                    del pending[op.op_id]
                    if subs_respond:
                        event = RespondEvent(time, op)
                        for emit in subs_respond:
                            emit(event)
                    if inproc:
                        # Inlined InProcTransport.send_response -> deliver().
                        client = op.runtime
                        if client is not None:
                            client.deliver_response(op)
                            settle(client)
                    else:
                        send_response(op)
                if subs_step:
                    for emit in subs_step:
                        emit(time)
                steps += 1
            if until is not None and until(self):
                return RunResult(steps, "until")
            return RunResult(steps, "max_steps")
        finally:
            global _TOTAL_STEPS
            _TOTAL_STEPS += steps

    def run_batched(
        self,
        max_steps: int = 100_000,
        until: Optional[Callable[["Kernel"], bool]] = None,
        batch_size: int = 64,
    ) -> RunResult:
        """:meth:`run` under its old name; the size is accepted, unused.

        There is one stepping loop.  The name survives only because
        ``benchmarks/e2e/probes.py`` — frozen with the benchmark — calls it.
        """
        return self.run(max_steps=max_steps, until=until)

    # -- queries used by analysis/adversaries ---------------------------------

    def client(self, client_id: ClientId) -> ClientRuntime:
        return self.clients[client_id]

    def stats(self) -> "Dict[str, int]":
        """A monitoring snapshot: time, op counts, pending, liveness."""
        return {
            "time": self.time,
            "clients": len(self.clients),
            "crashed_clients": sum(
                1 for c in self.clients.values() if c.crashed
            ),
            "servers": self.object_map.n_servers,
            "crashed_servers": len(self.object_map.crashed_servers),
            "objects": self.object_map.n_objects,
            "ops_triggered": len(self.ops),
            "ops_pending": len(self.pending),
            "covering_writes": sum(
                1 for op in self.pending.values() if op.is_mutator
            ),
        }
