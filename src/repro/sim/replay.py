"""Record and replay schedules.

Debugging a distributed-algorithm failure needs the *exact* interleaving
back.  :class:`RecordingScheduler` wraps any scheduler and records each
picked step as its descriptor; :class:`ReplayScheduler` re-issues a
recorded schedule verbatim against a fresh deployment, failing loudly
if the run diverges (a step in the script is not currently offered —
which means the system under replay is not the one recorded).

Descriptors are the plain tuples the step-keyed policies queue on
(:func:`~repro.sim.scheduling.describe`): ``("client", index)`` /
``("respond", op_value)``, so schedules serialize with ``json`` or
``repr`` and can be attached to bug reports.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import InvalidConfig, ModelViolation
from repro.sim.scheduling import Scheduler, StepDescriptor, describe


def materialize(
    descriptor: StepDescriptor, clients: Sequence, responds: Sequence
) -> Optional[int]:
    """The index of the step ``descriptor`` names into ``clients`` and
    ``responds`` laid end to end, or None when it is not offered."""
    kind, value = descriptor
    if kind == "client":
        for index, runtime in enumerate(clients):
            if runtime.client_id.index == value:
                return index
        return None
    if kind == "respond":
        for index, op in enumerate(responds):
            if op.op_id == value:
                return len(clients) + index
        return None
    raise InvalidConfig(f"unknown step descriptor {descriptor!r}")


class RecordingScheduler(Scheduler):
    """Wraps a scheduler, recording every picked step."""

    def __init__(self, inner: Scheduler):
        self.inner = inner
        self.script: "List[StepDescriptor]" = []

    def pick(self, clients: Sequence, responds: Sequence, kernel) -> int:
        index = self.inner.pick(clients, responds, kernel)
        self.script.append(describe(clients, responds, index))
        return index


class ReplayDivergence(ModelViolation):
    """The replayed system did not offer the recorded step."""


class ReplayScheduler(Scheduler):
    """Replays a recorded script step by step."""

    def __init__(self, script: "List[StepDescriptor]"):
        self.script = list(script)
        self.position = 0

    @property
    def exhausted(self) -> bool:
        return self.position >= len(self.script)

    def pick(self, clients: Sequence, responds: Sequence, kernel) -> int:
        if self.exhausted:
            raise ReplayDivergence(
                f"script exhausted after {self.position} steps but the"
                " run wants to continue"
            )
        wanted = self.script[self.position]
        index = materialize(wanted, clients, responds)
        if index is None:
            raise ReplayDivergence(
                f"at position {self.position}: recorded step {wanted}"
                f" is not among the {len(clients) + len(responds)} offered"
                " steps — the replayed system diverged from the recording"
            )
        self.position += 1
        return index
