"""Crash injection plans.

A :class:`CrashPlan` is an event listener that crashes servers (or
clients) at predetermined step counts or when predicates fire, letting
tests and benchmarks exercise f-tolerance deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.sim.events import EventListener
from repro.sim.ids import ClientId, ServerId


@dataclass
class _PredicateCrash:
    predicate: Callable[[object], bool]
    server_id: ServerId
    fired: bool = False


class CrashPlan(EventListener):
    """Deterministic crash schedule.

    Attach to a kernel with ``plan.install(kernel)``; the plan subscribes
    itself as a listener and triggers crashes after the matching step.
    Crashes are injected *between* kernel steps, which keeps the
    one-action-per-step model intact (a crash is an environment event, not
    an algorithm action).
    """

    def __init__(self) -> None:
        self._at_step: "List[Tuple[int, Optional[ServerId], Optional[ClientId]]]" = []
        self._on_predicate: "List[_PredicateCrash]" = []
        self._kernel = None

    # -- construction -----------------------------------------------------

    def crash_server_at(self, step: int, server_id: ServerId) -> "CrashPlan":
        self._at_step.append((step, server_id, None))
        return self

    def crash_client_at(self, step: int, client_id: ClientId) -> "CrashPlan":
        self._at_step.append((step, None, client_id))
        return self

    def crash_server_when(
        self, predicate: Callable[[object], bool], server_id: ServerId
    ) -> "CrashPlan":
        self._on_predicate.append(_PredicateCrash(predicate, server_id))
        return self

    # -- wiring --------------------------------------------------------------

    def install(self, kernel) -> "CrashPlan":
        self._kernel = kernel
        # repro-lint: disable=R005 a crash plan that detaches early stops firing
        kernel.add_listener(self)
        return self

    # -- listener --------------------------------------------------------------

    def on_step(self, time: int) -> None:
        if self._kernel is None:
            return
        remaining = []
        for step, server_id, client_id in self._at_step:
            if time >= step:
                self._fire(server_id, client_id)
            else:
                remaining.append((step, server_id, client_id))
        self._at_step = remaining
        for entry in self._on_predicate:
            if not entry.fired and entry.predicate(self._kernel):
                entry.fired = True
                self._kernel.crash_server(entry.server_id)

    def _fire(
        self, server_id: Optional[ServerId], client_id: Optional[ClientId]
    ) -> None:
        if server_id is not None:
            self._kernel.crash_server(server_id)
        if client_id is not None:
            self._kernel.crash_client(client_id)
