"""Record and replay schedules.

Debugging a distributed-algorithm failure needs the *exact* interleaving
back.  :class:`RecordingScheduler` wraps any scheduler and records each
chosen action as a compact descriptor; :class:`ReplayScheduler` re-issues
a recorded schedule verbatim against a fresh deployment, failing loudly
if the run diverges (an action in the script is not currently allowed —
which means the system under replay is not the one recorded).

Descriptors are plain tuples (``("client", index)`` /
``("respond", op_value)``), so schedules serialize with ``json`` or
``repr`` and can be attached to bug reports.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import InvalidConfig
from repro.sim.ids import ClientId, OpId
from repro.sim.kernel import Action, ActionKind
from repro.sim.scheduling import Scheduler

#: Serialized action: ("client", client_index) or ("respond", op_value).
ActionDescriptor = Tuple[str, int]


def describe(action: Action) -> ActionDescriptor:
    if action.kind is ActionKind.CLIENT:
        return ("client", action.client_id.index)
    return ("respond", action.op_id.value)


def materialize(descriptor: ActionDescriptor) -> Action:
    kind, value = descriptor
    if kind == "client":
        return Action(ActionKind.CLIENT, client_id=ClientId(value))
    if kind == "respond":
        return Action(ActionKind.RESPOND, op_id=OpId(value))
    raise InvalidConfig(f"unknown action descriptor {descriptor!r}")


class RecordingScheduler(Scheduler):
    """Wraps a scheduler, recording every chosen action."""

    def __init__(self, inner: Scheduler):
        self.inner = inner
        self.script: "List[ActionDescriptor]" = []

    def choose(self, actions, kernel) -> Action:
        action = self.inner.choose(actions, kernel)
        self.script.append(describe(action))
        return action


class ReplayDivergence(RuntimeError):
    """The replayed system did not offer the recorded action."""


class ReplayScheduler(Scheduler):
    """Replays a recorded script action by action."""

    def __init__(self, script: "List[ActionDescriptor]"):
        self.script = list(script)
        self.position = 0

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self.script)

    def choose(self, actions, kernel) -> Action:
        if self.exhausted:
            raise ReplayDivergence(
                f"script exhausted after {self.position} actions but the"
                " run wants to continue"
            )
        wanted = materialize(self.script[self.position])
        if wanted not in actions:
            raise ReplayDivergence(
                f"at position {self.position}: recorded action {wanted}"
                f" is not among the {len(actions)} allowed actions — the"
                " replayed system diverged from the recording"
            )
        self.position += 1
        return wanted
