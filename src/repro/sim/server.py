"""Servers and the object-to-server mapping ``delta``.

The paper generalizes the fault-prone shared memory model of Jayanti,
Chandra & Toueg by mapping base objects to servers via a function
``delta : B -> S``; the failure granularity is servers, i.e. a server crash
instantaneously crashes all base objects mapped to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.errors import InvalidConfig
from repro.sim.ids import ObjectId, ServerId
from repro.sim.objects import BaseObject


@dataclass
class Server:
    """A crash-prone server hosting a set of base objects."""

    server_id: ServerId
    object_ids: "List[ObjectId]" = field(default_factory=list)
    crashed: bool = False

    def host(self, object_id: ObjectId) -> None:
        if object_id in self.object_ids:
            raise InvalidConfig(f"{object_id} already hosted on {self.server_id}")
        self.object_ids.append(object_id)

    @property
    def storage(self) -> int:
        """Number of base objects stored on this server, ``|delta^-1({s})|``."""
        return len(self.object_ids)

    def __str__(self) -> str:
        state = "crashed" if self.crashed else "up"
        return f"{self.server_id}[{state}, {self.storage} objects]"


class ObjectMap:
    """The mapping ``delta`` between base objects and servers.

    Provides the image/pre-image notation of the paper:

    * ``delta(B)`` for a set of objects — :meth:`image`;
    * ``delta^-1(S)`` for a set of servers — :meth:`preimage`.
    """

    def __init__(self) -> None:
        self._servers: "Dict[ServerId, Server]" = {}
        #: The objects keyed by ``object_id.index`` (mutated in place,
        #: never rebound), in the order they were added: a plain int
        #: hashes in C, where an ``ObjectId`` key costs a Python
        #: ``__hash__`` and ``__eq__`` per lookup.  The kernel resolves
        #: every trigger through it.  An int key does not tell an
        #: ``ObjectId`` from another id of the same index, so
        #: :meth:`object` checks the type (``_delta`` keeps ``ObjectId``
        #: keys, off the step path).
        self._objects: "Dict[int, BaseObject]" = {}
        self._delta: "Dict[ObjectId, ServerId]" = {}

    # -- construction -----------------------------------------------------

    def add_server(self, server_id: ServerId) -> Server:
        if server_id in self._servers:
            raise InvalidConfig(f"duplicate server {server_id}")
        server = Server(server_id)
        self._servers[server_id] = server
        return server

    def add_object(self, obj: BaseObject, server_id: ServerId) -> None:
        if obj.object_id.index in self._objects:
            raise InvalidConfig(f"duplicate object {obj.object_id}")
        if server_id not in self._servers:
            raise InvalidConfig(f"unknown server {server_id}")
        self._objects[obj.object_id.index] = obj
        self._delta[obj.object_id] = server_id
        self._servers[server_id].host(obj.object_id)

    # -- lookups ----------------------------------------------------------

    @property
    def servers(self) -> "List[Server]":
        return list(self._servers.values())

    @property
    def server_ids(self) -> "List[ServerId]":
        return list(self._servers.keys())

    @property
    def objects(self) -> "List[BaseObject]":
        return list(self._objects.values())

    @property
    def object_ids(self) -> "List[ObjectId]":
        return [obj.object_id for obj in self._objects.values()]

    @property
    def n_servers(self) -> int:
        return len(self._servers)

    @property
    def n_objects(self) -> int:
        return len(self._objects)

    def server(self, server_id: ServerId) -> Server:
        return self._servers[server_id]

    def object(self, object_id: ObjectId) -> BaseObject:
        """The object ``object_id`` names; ``KeyError`` for an id this
        map does not hold, or one that is not an ``ObjectId``."""
        if object_id.__class__ is not ObjectId:
            raise KeyError(object_id)
        return self._objects[object_id.index]

    def server_of(self, object_id: ObjectId) -> ServerId:
        """``delta(b)``: the server hosting ``b``."""
        return self._delta[object_id]

    def image(self, object_ids: "Iterable[ObjectId]") -> "Set[ServerId]":
        """``delta(B)``: the set of servers hosting any object of ``B``."""
        return {self._delta[oid] for oid in object_ids}

    def preimage(self, server_ids: "Iterable[ServerId]") -> "Set[ObjectId]":
        """``delta^-1(S)``: all objects hosted on servers in ``S``."""
        wanted = set(server_ids)
        return {
            oid for oid, sid in self._delta.items() if sid in wanted
        }

    def objects_on(self, server_id: ServerId) -> "List[ObjectId]":
        """``delta^-1({s})`` as an ordered list."""
        return list(self._servers[server_id].object_ids)

    # -- failures ---------------------------------------------------------

    def crash_server(self, server_id: ServerId) -> "List[ObjectId]":
        """Crash a server; all its objects crash instantaneously.

        Returns the list of object ids that crashed (idempotent: crashing a
        crashed server returns an empty list).
        """
        server = self._servers[server_id]
        if server.crashed:
            return []
        server.crashed = True
        crashed = []
        for oid in server.object_ids:
            obj = self._objects[oid.index]
            if not obj.crashed:
                obj.crashed = True
                crashed.append(oid)
        return crashed

    @property
    def crashed_servers(self) -> "Set[ServerId]":
        return {sid for sid, s in self._servers.items() if s.crashed}

    @property
    def correct_servers(self) -> "Set[ServerId]":
        return {sid for sid, s in self._servers.items() if not s.crashed}

    def storage_profile(self) -> "Dict[ServerId, int]":
        """Objects stored per server (``|delta^-1({s})|`` for each s)."""
        return {sid: s.storage for sid, s in self._servers.items()}
