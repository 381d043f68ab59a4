"""Asynchronous fault-prone shared memory simulator.

This subpackage implements the system model of Chockler & Spiegelman
(PODC 2017), Section 2 / Appendix A: clients are deterministic state
machines that *trigger* low-level operations on base objects hosted on
crash-prone servers and later receive *responds*; an execution is an
alternating sequence of configurations and actions driven by a scheduler,
with an environment hook that may delay responds (the adversary's power).

Key design points:

* One kernel *step* executes exactly one action (a client step or a base
  object respond), mirroring the paper's notion of time ``t`` as the
  configuration reached after ``t`` actions.
* Low-level writes linearize at their respond step (the paper's
  Assumption 1), so a pending "covering" write can be held back arbitrarily
  long and take effect later, erasing a stored value.
* A server crash instantaneously crashes every base object mapped to it;
  pending operations on crashed objects never respond.
"""

from repro.sim.ids import ClientId, ObjectId, OpId, ServerId
from repro.sim.values import TSVal, bottom_tsval
from repro.sim.objects import (
    AtomicRegister,
    BaseObject,
    CASObject,
    MaxRegister,
    OpKind,
)
from repro.sim.server import ObjectMap, Server
from repro.sim.events import (
    CrashEvent,
    EventListener,
    InvokeEvent,
    RespondEvent,
    ReturnEvent,
    TriggerEvent,
)
from repro.sim.kernel import Environment, Kernel, OpLog
from repro.sim.scheduling import (
    ClientPriorityScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from repro.sim.client import ClientProtocol, ClientRuntime, Context, TaskHandle
from repro.sim.history import History, HistoryOp
from repro.sim.failures import CrashPlan
from repro.sim.chaos import ChaosEnvironment
from repro.sim.forking import ForkError, fork_kernel
from repro.sim.replay import (
    RecordingScheduler,
    ReplayDivergence,
    ReplayScheduler,
)
from repro.sim.tracing import TraceRecorder, render_event_log, render_timeline
from repro.sim.system import SimSystem, build_system

__all__ = [
    "AtomicRegister",
    "BaseObject",
    "CASObject",
    "ChaosEnvironment",
    "ClientId",
    "ClientPriorityScheduler",
    "ClientProtocol",
    "ClientRuntime",
    "Context",
    "CrashEvent",
    "CrashPlan",
    "Environment",
    "EventListener",
    "ForkError",
    "History",
    "HistoryOp",
    "InvokeEvent",
    "Kernel",
    "MaxRegister",
    "ObjectId",
    "ObjectMap",
    "OpId",
    "OpKind",
    "OpLog",
    "RandomScheduler",
    "RecordingScheduler",
    "ReplayDivergence",
    "ReplayScheduler",
    "RespondEvent",
    "ReturnEvent",
    "RoundRobinScheduler",
    "Scheduler",
    "Server",
    "ServerId",
    "SimSystem",
    "TaskHandle",
    "TriggerEvent",
    "TSVal",
    "TraceRecorder",
    "bottom_tsval",
    "build_system",
    "fork_kernel",
    "render_event_log",
    "render_timeline",
]
