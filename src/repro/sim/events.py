"""Event records and the listener protocol.

The kernel publishes an event for every action it executes.  Listeners
(history recorders, covering trackers, resource meters) subscribe via
:class:`EventListener`; all hooks default to no-ops so listeners implement
only what they need.

The records are ``NamedTuple``s: the kernel builds one per hooked event,
and a named tuple is one ``tuple.__new__`` where a frozen dataclass's
``__init__`` calls ``object.__setattr__`` once per field.  Fields are
read-only.  Equality is the tuple's, so two records with equal fields
compare equal even when their kinds differ (a ``TriggerEvent`` and a
``RespondEvent`` of the same op at the same time).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from repro.sim.ids import ClientId, ServerId
from repro.sim.objects import LowLevelOp


class TriggerEvent(NamedTuple):
    """A low-level operation was triggered on a base object."""

    time: int
    op: LowLevelOp


class RespondEvent(NamedTuple):
    """A low-level operation responded (and took effect)."""

    time: int
    op: LowLevelOp


class InvokeEvent(NamedTuple):
    """A high-level (emulated) operation was invoked by a client."""

    time: int
    client_id: ClientId
    seq: int
    name: str
    args: tuple


class ReturnEvent(NamedTuple):
    """A high-level (emulated) operation returned to its client."""

    time: int
    client_id: ClientId
    seq: int
    name: str
    result: Any


class CrashEvent(NamedTuple):
    """A server or client crashed."""

    time: int
    server_id: Optional[ServerId] = None
    client_id: Optional[ClientId] = None


class EventListener:
    """Subscribe to kernel events by overriding any subset of hooks."""

    def on_trigger(self, event: TriggerEvent) -> None:  # pragma: no cover
        pass

    def on_respond(self, event: RespondEvent) -> None:  # pragma: no cover
        pass

    def on_invoke(self, event: InvokeEvent) -> None:  # pragma: no cover
        pass

    def on_return(self, event: ReturnEvent) -> None:  # pragma: no cover
        pass

    def on_crash(self, event: CrashEvent) -> None:  # pragma: no cover
        pass

    def on_step(self, time: int) -> None:  # pragma: no cover
        """Called after every kernel step, once all other hooks ran."""
        pass
