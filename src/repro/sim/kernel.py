"""The simulation kernel: configurations, actions, steps.

A run of an emulation algorithm is an alternating sequence of
configurations and actions (Appendix A.4).  The kernel executes one action
per step; the step counter is the paper's notion of time ``t``.  Two action
kinds exist:

* ``CLIENT`` — a client takes a step: it invokes its next high-level
  operation, or advances one of its runnable coroutines (triggering
  low-level operations and/or executing a return action).
* ``RESPOND`` — a pending low-level operation on a correct base object
  responds, *taking effect at that instant* (Assumption 1).

An :class:`Environment` may veto ``RESPOND`` actions — this is exactly the
adversary's power in the lower-bound proof (Definition 3: a blocked write
"does not respond at t").  Fairness (Definition of fair runs) is then a
property of the scheduler plus environment: every non-vetoed enabled action
is eventually executed.

Scheduling is *incremental*: the kernel maintains the enabled client set
and the respondable pending-op set as live data structures, updated at the
events that change them (trigger, respond, enqueue, crash, coroutine
wait/wake) instead of recomputing them from scratch every step.
:meth:`Kernel.enabled_actions` remains the from-scratch oracle — tests
step a kernel through it one action at a time, and
:meth:`Kernel.check_incremental` asserts the two views agree (see
``docs/MODEL.md``, "Performance", for the invariants).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import InvalidConfig, ModelViolation
from repro.sim.client import (
    SCHED_DISABLED,
    SCHED_ENABLED,
    SCHED_POLLING,
    ClientProtocol,
    ClientRuntime,
)
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


class ActionKind(Enum):
    CLIENT = "client"
    RESPOND = "respond"


class Action:
    """One executable action: a client step or a low-level respond.

    Used to be a frozen dataclass; now a hand-written ``__slots__`` value
    type — schedulers key queues on actions and one action is allocated
    per arriving request, so construction and hashing sit on the hot
    path.  Construction is three plain slot stores (no immutability
    guard: a ``__setattr__`` override taxes ``__init__`` on every
    trigger; actions are immutable by convention — nothing in the
    kernel mutates one after construction).  Equality, ordering and
    ``str`` are unchanged from the dataclass.
    """

    __slots__ = ("kind", "client_id", "op_id", "_hash")

    def __init__(
        self,
        kind: ActionKind,
        client_id: Optional[ClientId] = None,
        op_id: Optional[OpId] = None,
    ):
        self.kind = kind
        self.client_id = client_id
        self.op_id = op_id
        # ``_hash`` stays unset until first use: most RESPOND actions are
        # never hashed (the random scheduler only indexes), but
        # round-robin queues key on actions.

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            cached = self._hash = hash(
                (self.kind, self.client_id, self.op_id)
            )
            return cached

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not Action:
            return NotImplemented
        return (
            self.kind is other.kind
            and self.client_id == other.client_id
            and self.op_id == other.op_id
        )

    def __ne__(self, other: Any) -> bool:
        if other.__class__ is not Action:
            return NotImplemented
        return not self.__eq__(other)

    def __repr__(self) -> str:
        return (
            f"Action(kind={self.kind!r}, client_id={self.client_id!r},"
            f" op_id={self.op_id!r})"
        )

    def __reduce__(self):
        return (Action, (self.kind, self.client_id, self.op_id))

    def __str__(self) -> str:
        if self.kind is ActionKind.CLIENT:
            return f"step({self.client_id})"
        return f"respond({self.op_id})"

    def __lt__(self, other: "Action") -> bool:
        return self._sort_key() < other._sort_key()

    def _sort_key(self) -> tuple:
        if self.kind is ActionKind.CLIENT:
            return (0, self.client_id.index, 0)
        return (1, 0, self.op_id.value)


class Environment:
    """Hook allowing an adversary to constrain the run.

    The default environment allows everything (failure-free, fully
    asynchronous).  Subclasses override :meth:`allows` to veto respond
    actions — vetoing client steps is not permitted by the model (clients
    always get opportunities to take steps in fair runs), so the kernel
    only consults the environment for ``RESPOND`` actions.
    """

    def allows(self, action: Action, kernel: "Kernel") -> bool:
        return True

    def on_stall(self, kernel: "Kernel") -> bool:
        """Called when every enabled action is vetoed.

        Return True to have the kernel re-evaluate (the environment should
        have relaxed something); False means the block is intentional and
        the run ends with reason ``"blocked"``.  The lower-bound adversary
        keeps the default (blocking is its purpose); chaotic/latency
        environments override this to preserve liveness.
        """
        return False


class OpLog(Mapping):
    """The low-level operations a kernel triggered, keyed by op id.

    ``len()`` is the number of ops triggered: op ids are dense from 0 in
    trigger order, and the next trigger takes id ``len(log)``.  The ops
    themselves are kept only once :meth:`record` was called, before the
    first trigger; otherwise the kernel holds only the pending ones
    (``Kernel.pending``) and a finished op is freed as soon as its
    client is done with it.

    A recording log is a read-only ``Mapping[OpId, LowLevelOp]`` over a
    list (an op's id is its list index).  Iteration, ``keys()``,
    ``values()`` and ``items()`` run in op-id order.  Any key that is not
    a triggered op id (unknown, negative, not an ``int``) raises
    ``KeyError``, as a dict would.  On a log that does not record, every
    lookup and iteration raises ``ModelViolation``: an empty answer
    would let an audit over it pass vacuously.
    """

    __slots__ = ("_ops", "_count")

    def __init__(self) -> None:
        #: the triggered ops in id order, or None while not recording
        self._ops: "Optional[List[LowLevelOp]]" = None
        self._count = 0

    def record(self) -> None:
        """Keep every op the kernel triggers: the whole run, so it is
        refused once anything was triggered."""
        if self._count:
            raise ModelViolation(
                "OpLog.record after operations were triggered; recording"
                " must start before the run does"
            )
        self._ops = []

    @property
    def recording(self) -> bool:
        return self._ops is not None

    def _recorded(self) -> "List[LowLevelOp]":
        ops = self._ops
        if ops is None:
            raise ModelViolation(
                "this kernel's op log does not record: it keeps only the"
                " pending ops (call kernel.ops.record() before the run)"
            )
        return ops

    def __getitem__(self, op_id: Any) -> LowLevelOp:
        ops = self._recorded()
        if isinstance(op_id, int) and op_id >= 0:
            try:
                return ops[op_id]
            except IndexError:
                pass
        raise KeyError(op_id)

    def __iter__(self) -> "Iterator[OpId]":
        return (op.op_id for op in self._recorded())

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

    Responsibilities: track pending low-level operations, compute the set
    of enabled actions, apply the scheduler/environment, execute actions,
    publish events, and provide imperative controls (crashes, forced
    actions) used by the lower-bound run constructions.

    Incremental bookkeeping (see ``docs/MODEL.md``, "Performance"):

    * ``_candidates`` — client runtimes that are enabled or may wake
      (everything except crashed / idle-with-empty-program clients), in
      ascending client-id order.  Each candidate carries its own
      scheduling category (``runtime._category``: definitely steppable
      vs. blocked on wait predicates re-evaluated lazily) and its
      reusable ``CLIENT`` action (``runtime.action``), so collecting the
      enabled actions touches no hash tables at all;
    * ``_respond_actions`` — cached ``RESPOND`` actions of pending ops on
      live objects, kept in ascending op-id order.  Always mutated in
      place (never rebound) so the reference hoisted by :meth:`run`
      stays valid;
    * ``_crashed_mid_op`` — how many clients crashed with a high-level
      operation in flight.  With ``_candidates`` it answers
      :meth:`clients_quiescent` without visiting a client.
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
        # Direct alias of the object map's id->object table (mutated in
        # place, never rebound): trigger() resolves the target object on
        # every low-level op, so the lookup skips a method call.
        self._objects = object_map._objects
        self.clients: "Dict[ClientId, ClientRuntime]" = {}
        self.ops = OpLog()
        self.pending: "Dict[OpId, LowLevelOp]" = {}
        self.listeners: "List[EventListener]" = []
        self._next_seq = 0
        # Incremental enabled-action state: candidate runtimes in
        # ascending client-id order (category/action live on the runtime).
        self._candidates: "List[ClientRuntime]" = []
        # Clients that crashed with a high-level operation in flight.
        self._crashed_mid_op = 0
        #: RESPOND actions for pending ops on live objects; insertion is in
        #: ascending op-id order and deletions preserve it, so iteration
        #: order always equals sorted order.
        self._respond_actions: "Dict[OpId, Action]" = {}
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
        runtime.action = Action(ActionKind.CLIENT, client_id=client_id)
        self._recategorize(runtime)
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

    def _refresh_client(self, client_id: ClientId) -> None:
        """Recategorize one client after an event that may change it.

        Id-keyed wrapper around :meth:`_recategorize` for callers that
        hold an id rather than the runtime (client enqueue, transports).
        """
        runtime = self.clients.get(client_id)
        if runtime is not None:
            self._recategorize(runtime)

    def _recategorize(self, runtime: ClientRuntime) -> None:
        """Recategorize one client after an event that may change it.

        Called after every step of / response delivery to / enqueue on /
        crash of the client.  Also marks the client's wait predicates
        dirty, so polling clients are re-evaluated exactly when touched.
        The category is stored on the runtime itself; the candidate list
        only changes on transitions into or out of ``SCHED_DISABLED``.
        """
        runtime._poll_dirty = True
        category = runtime._sched_category()
        previous = runtime._category
        if category == previous:
            return
        runtime._category = category
        if previous != SCHED_DISABLED:
            if category == SCHED_DISABLED:
                self._candidates.remove(runtime)
                if runtime.active_seq is not None:
                    # Only a crash disables a client mid-operation, and a
                    # crashed client never rejoins: counted exactly once.
                    self._crashed_mid_op += 1
            return
        # Joining: insert preserving ascending client-id order.
        candidates = self._candidates
        index = runtime.client_id.index
        lo, hi = 0, len(candidates)
        while lo < hi:
            mid = (lo + hi) // 2
            if candidates[mid].client_id.index < index:
                lo = mid + 1
            else:
                hi = mid
        candidates.insert(lo, runtime)

    def clients_settled(self) -> bool:
        """Every client is crashed, or idle with nothing queued.  O(1).

        No client will step again until something is enqueued; low-level
        operations may still be pending (they are covering).
        """
        return not self._candidates

    def clients_quiescent(self) -> bool:
        """No high-level operation is in flight or queued.  O(1).

        :meth:`clients_settled`, and no client crashed mid-operation: an
        operation orphaned by a crash stays in flight forever, so a run
        waiting on this predicate ends ``"quiescent"`` / ``"blocked"``,
        never ``"until"``.  Usable directly as ``run(until=...)``.
        """
        return not self._candidates and not self._crashed_mid_op

    # -- low-level operation lifecycle ------------------------------------------

    def trigger(
        self,
        client_id: ClientId,
        object_id: ObjectId,
        kind: OpKind,
        args: tuple,
        highlevel_seq: Optional[int],
    ) -> LowLevelOp:
        """Trigger a low-level operation (called from client runtimes)."""
        obj = self._objects[object_id]
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
        if log._ops is not None:
            log._ops.append(op)
        self.pending[op_id] = op
        # The request leg belongs to the transport: the op becomes
        # respondable when (and if) the transport delivers it via
        # arrive().  For the plain in-process transport that leg is an
        # immediate arrive(), inlined here: the op is pending, not a
        # duplicate and has the largest id yet (so appending keeps the
        # order), and a crashed object silently swallows the request.
        if self._inproc:
            if not obj.crashed:
                self._respond_actions[op_id] = Action(
                    ActionKind.RESPOND, None, op_id
                )
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
        no-ops).  The in-process transport calls this inside
        :meth:`trigger` with strictly increasing op ids, preserving the
        append-in-sorted-order fast path; a lossy transport may deliver
        out of order, in which case the sorted ``_respond_actions``
        invariant is restored by rebuilding.
        """
        op = self.pending.get(op_id)
        if op is None:
            return  # already responded (duplicate or stale delivery)
        actions = self._respond_actions
        if op_id in actions:
            return  # duplicate delivery
        obj = op.obj
        if obj is None:
            obj = self.object_map.object(op.object_id)
        if obj.crashed:
            return  # arrived at a dead server: never respondable
        action = Action(ActionKind.RESPOND, None, op_id)
        if actions and op_id < next(reversed(actions)):
            # Out-of-order arrival: re-establish ascending op-id order.
            # Mutated in place (clear + update, never rebound) so that
            # run()'s hoisted reference stays valid.
            actions[op_id] = action
            ordered = sorted(actions.items())
            actions.clear()
            actions.update(ordered)
        else:
            actions[op_id] = action

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
        self._respond_actions.pop(op.op_id, None)
        if self._subs_respond:
            event = RespondEvent(self.time, op)
            for emit in self._subs_respond:
                emit(event)
        # The response leg belongs to the transport: the client learns of
        # the respond when (and if) the transport delivers it.
        transport.send_response(op)

    def deliver(self, op: LowLevelOp) -> None:
        """A response leg reached its client (transport-facing).

        Delivery cannot change the client's scheduling category:
        ``on_response`` handlers only see the context, whose sole
        category-changing call — ``spawn`` — updates the category itself
        (see :meth:`ClientRuntime.spawn`).  Only the wait predicates may
        flip, so marking them dirty suffices; the full ``_sched_category``
        rescan is skipped.
        """
        client = self.clients.get(op.client_id)
        if client is not None:
            client.deliver_response(op)
            client._poll_dirty = True

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
        """Crash a server and all base objects mapped to it."""
        crashed = self.object_map.crash_server(server_id)
        if crashed:
            gone = set(crashed)
            pending = self.pending
            for op_id in [
                op_id
                for op_id in self._respond_actions
                if pending[op_id].object_id in gone
            ]:
                del self._respond_actions[op_id]
            self.transport.on_server_crash(server_id, crashed)
        if self._subs_crash:
            event = CrashEvent(self.time, server_id=server_id)
            for emit in self._subs_crash:
                emit(event)

    def crash_client(self, client_id: ClientId) -> None:
        """Crash a client; its pending low-level ops remain pending."""
        self.clients[client_id].crash()
        if self._subs_crash:
            event = CrashEvent(self.time, client_id=client_id)
            for emit in self._subs_crash:
                emit(event)

    # -- enabled actions ---------------------------------------------------------------

    def enabled_actions(self) -> "List[Action]":
        """All actions executable in the current configuration.

        Deterministically ordered (clients by id, responds by op id) so a
        seeded scheduler yields reproducible runs.  This is the
        from-scratch *oracle*: it rebuilds the set by inspecting every
        client and pending op, independent of the incremental state.
        """
        actions: "List[Action]" = []
        for client_id in sorted(self.clients):
            if self.clients[client_id].enabled():
                actions.append(Action(ActionKind.CLIENT, client_id=client_id))
        transport = self.transport
        for op_id in sorted(self.pending):
            op = self.pending[op_id]
            if not self.object_map.object(
                op.object_id
            ).crashed and transport.request_arrived(op):
                actions.append(Action(ActionKind.RESPOND, op_id=op_id))
        return actions

    def _collect_enabled(self) -> "List[Action]":
        """The enabled actions, from the incremental state (fast path).

        Returns the same deterministically-ordered list as
        :meth:`enabled_actions` whenever wait predicates are functions of
        client-local state (the model's contract — see
        :mod:`repro.sim.client`).
        """
        actions: "List[Action]" = []
        for runtime in self._candidates:
            if runtime._category == SCHED_ENABLED:
                actions.append(runtime.action)
            else:  # polling: blocked on wait predicates
                if runtime._poll_dirty:
                    runtime._poll_cache = runtime._poll_now()
                    runtime._poll_dirty = False
                if runtime._poll_cache:
                    actions.append(runtime.action)
        if self._respond_actions:
            actions.extend(self._respond_actions.values())
        return actions

    def _filter_allowed(self, actions: "List[Action]") -> "List[Action]":
        """Drop the RESPOND actions the environment vetoes.

        The single veto-filtering path shared by :meth:`run` and
        :meth:`allowed_actions`: the environment is consulted for every
        candidate respond on every call (an environment that wants to
        memoize its verdicts does so itself, as the lower-bound adversary
        does per covering-state version).  The default environment, which
        never vetoes, short-circuits entirely.
        """
        env = self.environment
        if type(env).allows is Environment.allows:
            return actions  # the default environment vetoes nothing
        allows = env.allows
        return [
            action
            for action in actions
            if action.kind is ActionKind.CLIENT or allows(action, self)
        ]

    def allowed_actions(self) -> "List[Action]":
        """Enabled actions that the environment does not veto."""
        return self._filter_allowed(self.enabled_actions())

    def check_incremental(self) -> None:
        """Assert the incremental state matches the from-scratch oracles.

        Raises ModelViolation when the incrementally-maintained enabled
        list (including order) diverges from a from-scratch
        :meth:`enabled_actions` rebuild, or when :meth:`clients_settled`
        / :meth:`clients_quiescent` diverge from a scan of every client.
        Used by the property tests; safe to call between steps of a run.
        """
        clients = self.clients.values()
        views = (
            (
                "enabled-action state",
                [str(a) for a in self._collect_enabled()],
                [str(a) for a in self.enabled_actions()],
            ),
            (
                "clients_settled()",
                self.clients_settled(),
                all(c.crashed or (c.idle and not c.program) for c in clients),
            ),
            (
                "clients_quiescent()",
                self.clients_quiescent(),
                all(c.idle and not c.program for c in clients),
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

    def execute(self, action: Action) -> None:
        """Execute one action and advance time by one step."""
        self.time += 1
        if action.kind is ActionKind.CLIENT:
            runtime = self.clients[action.client_id]
            try:
                runtime.step()
            finally:
                self._recategorize(runtime)
        else:
            op = self.pending.get(action.op_id)
            if op is None:
                raise ModelViolation(f"{action.op_id} is not pending")
            obj = op.obj
            if obj is None:
                obj = self.object_map.object(op.object_id)
            if obj.crashed:
                raise ModelViolation(f"respond on crashed object: {op}")
            self._respond(op)
        for emit in self._subs_step:
            emit(self.time)

    def force_respond(self, op_id: OpId) -> None:
        """Imperatively execute a specific respond (run-construction tool)."""
        self.execute(Action(ActionKind.RESPOND, op_id=op_id))

    def force_client_step(self, client_id: ClientId) -> None:
        """Imperatively execute a specific client step."""
        self.execute(Action(ActionKind.CLIENT, client_id=client_id))

    def run(
        self,
        max_steps: int = 100_000,
        until: Optional[Callable[["Kernel"], bool]] = None,
    ) -> RunResult:
        """Run under the scheduler/environment: the one stepping loop.

        Stops when ``until(kernel)`` holds, when no action is enabled
        (``"quiescent"``), when every enabled action is vetoed
        (``"blocked"``), or after ``max_steps`` steps.

        The scheduler, environment and transport are read once per call
        (swap them between calls, not from inside one), which decides
        the two optional hooks: the veto filter and ``on_stall`` run
        only when the environment overrides :meth:`Environment.allows`,
        ``pump`` / ``flush_idle`` only when the transport is ``active``.
        Action execution is :meth:`execute` inlined.  A respond on any
        transport that is not ``remote`` applies the op to its local
        object and does :meth:`_respond`'s bookkeeping here, then hands
        the response leg to ``transport.send_response`` — or, for the
        plain in-process transport, delivers it inline; remote
        transports go through :meth:`_respond`, as :meth:`execute` does.
        The structures hoisted here are mutated in place by the event
        handlers, never rebound, so the locals stay current as crash
        plans and listeners fire mid-run.  See ``docs/MODEL.md``,
        "Performance".
        """
        environment = self.environment
        vetoing = type(environment).allows is not Environment.allows
        transport = self.transport if self.transport.active else None
        remote = self.transport.remote
        send_response = self.transport.send_response
        inproc = self._inproc
        respond_actions = self._respond_actions
        pending = self.pending
        clients = self.clients
        choose = self.scheduler.choose
        recategorize = self._recategorize
        collect = self._collect_enabled
        subs_step = self._subs_step
        subs_respond = self._subs_respond
        client_kind = ActionKind.CLIENT
        steps = 0
        try:
            while steps < max_steps:
                if until is not None and until(self):
                    return RunResult(steps, "until")
                if transport is not None:
                    transport.pump()
                actions = collect()
                if not actions:
                    if transport is not None and transport.flush_idle():
                        continue  # a delivery landed: re-evaluate
                    return RunResult(steps, "quiescent")
                if vetoing:
                    actions = self._filter_allowed(actions)
                    if not actions:
                        if environment.on_stall(self):
                            actions = self._filter_allowed(collect())
                        if not actions:
                            if transport is not None and transport.flush_idle():
                                continue  # an in-flight delivery may unblock
                            return RunResult(steps, "blocked")
                action = choose(actions, self)
                # Inlined execute().
                time = self.time = self.time + 1
                if action.kind is client_kind:
                    runtime = clients[action.client_id]
                    try:
                        runtime.step()
                    finally:
                        recategorize(runtime)
                else:
                    op_id = action.op_id
                    op = pending.get(op_id)
                    if op is None:
                        raise ModelViolation(f"{op_id} is not pending")
                    obj = op.obj
                    if obj is None:
                        obj = self.object_map.object(op.object_id)
                    if obj.crashed:
                        raise ModelViolation(f"respond on crashed object: {op}")
                    if remote:
                        self._respond(op)
                    else:
                        # Inlined _respond() for every local transport.
                        # Support was checked at trigger and crash just
                        # above, so the wrapper re-checks in
                        # BaseObject.apply are redundant.
                        op.result = obj._apply(op)
                        op.respond_time = time
                        del pending[op_id]
                        respond_actions.pop(op_id, None)
                        if subs_respond:
                            event = RespondEvent(time, op)
                            for emit in subs_respond:
                                emit(event)
                        if inproc:
                            # Inlined InProcTransport.send_response ->
                            # deliver(), which explains the dirty mark.
                            client = clients.get(op.client_id)
                            if client is not None:
                                client.deliver_response(op)
                                client._poll_dirty = True
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
