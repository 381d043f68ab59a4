"""Convenience wiring of servers, objects, kernel and history.

Emulation algorithms describe *placements* — which base object types live
on which servers with which initial values — and :func:`build_system`
turns a placement list into a ready-to-run :class:`SimSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.errors import InvalidConfig
from repro.sim.client import ClientProtocol, ClientRuntime
from repro.sim.events import EventListener
from repro.sim.history import History
from repro.sim.ids import ClientId, ObjectId, ServerId
from repro.sim.kernel import Environment, Kernel
from repro.sim.objects import make_object
from repro.sim.scheduling import RandomScheduler, Scheduler
from repro.sim.server import ObjectMap

#: (server index, object type name, initial value)
Placement = Tuple[int, str, Any]


@dataclass
class SimSystem:
    """A wired simulation: object map, kernel and history recorder.

    ``history`` is the listener :func:`build_system` subscribed: a
    :class:`~repro.sim.history.History`, unless the caller passed
    another recorder (a slot fleet's per-slot router).
    """

    object_map: ObjectMap
    kernel: Kernel
    history: EventListener

    def add_client(
        self, client_id: ClientId, protocol: ClientProtocol
    ) -> ClientRuntime:
        return self.kernel.add_client(client_id, protocol)

    def run(self, max_steps: int = 100_000, until=None):
        return self.kernel.run(max_steps=max_steps, until=until)

    def run_to_quiescence(self, max_steps: int = 100_000):
        """Run until no high-level operation is in flight and no client has
        queued work (pending low-level ops may remain — they are covering).
        """
        return self.kernel.run(
            max_steps=max_steps, until=Kernel.clients_quiescent
        )

    @property
    def n_servers(self) -> int:
        return self.object_map.n_servers

    @property
    def n_objects(self) -> int:
        return self.object_map.n_objects


def build_system(
    n_servers: int,
    placements: "Sequence[Placement]",
    scheduler: Optional[Scheduler] = None,
    environment: Optional[Environment] = None,
    history: Optional[EventListener] = None,
    transport=None,
) -> SimSystem:
    """Build a simulation from a placement list.

    ``placements[i]`` places object ``b_i`` (ids are assigned in order) on
    the given server with the given type and initial value.  ``history``
    is the recorder subscribed for the kernel's lifetime (``None``: a
    fresh :class:`~repro.sim.history.History`).  ``transport`` is a
    ready :class:`~repro.net.transport.Transport` instance (``None``
    selects direct in-process delivery).
    """
    if n_servers <= 0:
        raise InvalidConfig("need at least one server")
    object_map = ObjectMap()
    for index in range(n_servers):
        object_map.add_server(ServerId(index))
    for object_index, (server_index, type_name, initial) in enumerate(placements):
        if not 0 <= server_index < n_servers:
            raise InvalidConfig(
                f"placement {object_index}: server {server_index} out of range"
            )
        obj = make_object(type_name, ObjectId(object_index), initial)
        object_map.add_object(obj, ServerId(server_index))
    kernel = Kernel(
        object_map,
        scheduler=scheduler or RandomScheduler(seed=0),
        environment=environment,
        transport=transport,
    )
    # Note: an empty History is falsy (len == 0), so test against None.
    recorder = history if history is not None else History()
    # repro-lint: disable=R005 the History witness sees every event until teardown
    kernel.add_listener(recorder)
    return SimSystem(object_map=object_map, kernel=kernel, history=recorder)
