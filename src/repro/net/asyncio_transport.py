"""Real sockets under the unchanged protocol state machines.

:class:`AsyncioTransport` sends every low-level request over a localhost
TCP connection to a replica server process (or an in-process asyncio
server, for ``repro cluster``) that owns the authoritative base-object
state, and feeds the results back into the ordinary kernel respond path.
The protocol code in ``core/`` is untouched: clients still call
``ctx.trigger`` and still see ``on_response`` at the respond step; the
history the kernel records is the same shape the consistency checkers
always consumed.

Division of labour with the kernel:

* the *request leg* is a real socket write; the operation becomes
  respondable (``kernel.arrive``) only once the replica's answer is
  back, so the respond step can take effect instantly with the remote
  result (``remote = True`` — the kernel reads :meth:`result_for`
  instead of applying the op to its local shadow objects, whose state
  is never consulted);
* the *respond step* stays a kernel action: scheduling, environment
  vetoes, events and history recording all behave exactly as in
  simulation;
* the *response leg* is local delivery (the socket round-trip already
  happened on the request leg).

Who runs the event loop: the caller, and nobody else.  The transport
owns a private loop and no thread, lock or queue.  ``send_request``
appends the op to a per-server outbox;
:meth:`~AsyncioTransport.flush_idle` (the kernel has nothing enabled)
encodes each outbox as one segment, writes it in one ``write`` and runs
the loop until a response has been parsed or ``idle_timeout`` expires;
``pump`` hands parsed responses to ``kernel.arrive``.  Both ends code a
segment per call (an outbox, a TCP read, the answers to one read) with
the binary segment functions of :mod:`repro.net.wire`, the one wire
format (a replica parses, applies and answers a read in one pass,
``serve_binary_requests``).  Everything else the loop hosts —
self-hosted replicas, redial timers after a lost link, stray late
responses — advances only inside ``start`` / ``flush_idle`` / ``close``
/ ``crash_replica`` / ``restart_replica``, never while the caller
computes or sleeps, and the transport cannot be driven from inside
another running event loop on the same thread (asyncio refuses to nest).

This module is exempt from lint rule R002 (see docs/LINTING.md): it is
the one place in the tree that legitimately touches wall-clock time —
socket startup and idle-drain deadlines are physical waits on a real
network, not hidden inputs to a deterministic simulation.  Nothing here
feeds timing back into scheduling decisions; kernel time remains the
step counter.
"""

from __future__ import annotations

import asyncio
import sys
from operator import itemgetter
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import InvalidConfig, TransportUnavailable, WireDecodeError
from repro.net.transport import Transport
from repro.net.wire import (
    decode_binary_responses,
    encode_binary_requests,
    serve_binary_requests,
)
from repro.sim.ids import ObjectId, OpId
from repro.sim.objects import make_object

#: (object index, object type name, initial value) — one replica.
ReplicaSpec = Tuple[int, str, Any]

#: seconds ``start`` waits for every listener and connection to come up
STARTUP_TIMEOUT = 10.0


def check_port(port: int, what: str) -> int:
    """``port`` if a TCP socket can bind or dial it (0: ephemeral), else
    :class:`~repro.errors.InvalidConfig`."""
    if not 0 <= port <= 65535:
        raise InvalidConfig(f"{what} {port} is outside 0-65535")
    return port


def _parse_address(address: str, default_host: str) -> "Tuple[str, int]":
    """``(host, port)`` of a ``[host]:port`` address."""
    host, _, port = address.rpartition(":")
    if not port.isdigit():
        raise InvalidConfig(f"address {address!r} is not HOST:PORT")
    return host or default_host, check_port(int(port), f"{address!r}: port")


def snapshot_placements(object_map) -> "Dict[int, List[ReplicaSpec]]":
    """Per-server replica specs, read off a wired object map.

    The spec is enough to rebuild each server's base objects with
    :func:`~repro.sim.objects.make_object` in another process — type
    names are the stable ``TYPE_NAME`` strings the placement lists in
    ``core/`` use.
    """
    placements: "Dict[int, List[ReplicaSpec]]" = {}
    for server in object_map.servers:
        placements[server.server_id.index] = [
            (
                object_id.index,
                object_map.object(object_id).TYPE_NAME,
                object_map.object(object_id).initial_value,
            )
            for object_id in server.object_ids
        ]
    return placements


class ReplicaServer:
    """One sim server's base objects, served over binary frames.

    Requests are applied to the replicas strictly in arrival order on
    the event loop — the replica is the linearization point for its
    objects, exactly like ``BaseObject.apply`` at the respond step is in
    simulation.  The connection is pipelined: every complete frame of a
    TCP segment is applied and the answers leave in one ``write``.
    """

    def __init__(self, server_index: int, replicas: "List[ReplicaSpec]"):
        self.server_index = server_index
        self.replicas = {
            object_index: make_object(
                type_name, ObjectId(object_index), initial_value
            )
            for object_index, type_name, initial_value in replicas
        }
        self.requests_served = 0
        #: object index -> the last ``TSVal`` it answered and its packed
        #: bytes (``serve_binary_requests``'s ``answered``): a read of an
        #: unchanged object copies the bytes instead of packing again.
        self.answered: "Dict[int, Tuple[Any, bytes]]" = {}
        #: transports of the connections accepted and not yet lost.
        self.connections: "Set[asyncio.BaseTransport]" = set()

    def connection(self) -> "_ReplicaConnection":
        """Protocol factory for ``loop.create_server``."""
        return _ReplicaConnection(self)

    def drop_connections(self) -> None:
        """Abort every accepted connection (process death, shutdown)."""
        for transport in list(self.connections):
            transport.abort()


#: bytes one ``recv_into`` may fill; a longer frame spans several reads
#: and waits in the protocol's tail until it is complete.
_RECV_BUFFER_BYTES = 64 * 1024


class _BufferedReader(asyncio.BufferedProtocol):
    """Reads its connection into one buffer, reused for every read.

    A plain ``asyncio.Protocol`` gets a fresh ``bytes`` per read, and
    the selector loop allocates ``max_size`` (256 KiB) for each ``recv``
    before shrinking it; on glibc that allocation made the heap shrink
    and grow back on every read, a minor page fault storm
    (``scripts/count_recv_faults.py`` counts them).  Here each read
    lands in the same buffer, and the subclass's ``data_received``
    parses a view of the bytes just read, after the incomplete frame
    the previous read left in ``_tail``.
    """

    def __init__(self) -> None:
        self._buffer = memoryview(bytearray(_RECV_BUFFER_BYTES))
        self._tail = b""

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._buffer[:nbytes])


class _ReplicaConnection(_BufferedReader):
    """The replica end of one accepted connection.

    Each TCP read is answered in one pass by
    :func:`~repro.net.wire.serve_binary_requests`: every complete request
    frame is parsed to its fields (no op is built), applied with
    ``replica._apply(kind, args)`` and answered into one buffer, which
    leaves in one ``write``; a malformed frame, an unknown object or an
    unsupported kind cuts the peer off after the answers it is owed.
    """

    def __init__(self, server: ReplicaServer):
        super().__init__()
        self._server = server
        self._transport: Any = None

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._server.connections.add(transport)

    def connection_lost(self, exc) -> None:
        self._server.connections.discard(self._transport)

    def data_received(self, data: "bytes | memoryview") -> None:
        server = self._server
        answers, self._tail, served, malformed = serve_binary_requests(
            self._tail + data, server.replicas, server.answered
        )
        if served:
            server.requests_served += served
            self._transport.write(answers)
        if malformed:
            # cut the peer off, after the answers it is owed (close
            # flushes them first) for the frames that did apply.
            self._transport.close()

    def pause_writing(self) -> None:
        # flow control: a peer that stops reading its answers stops
        # being read, which bounds the answer buffer.
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()


class _ReplicaLink(_BufferedReader):
    """The client end of the connection to one replica server."""

    def __init__(self, owner: "AsyncioTransport", server_index: int):
        super().__init__()
        self._owner = owner
        self._server_index = server_index
        self.transport: Any = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self._owner._link_down(self._server_index, self)

    def data_received(self, data: "bytes | memoryview") -> None:
        owner = self._owner
        ready = owner._ready
        try:
            pairs, self._tail = decode_binary_responses(
                self._tail + data, owner._parsed
            )
        except WireDecodeError as error:
            # the answers before the bad frame still arrive; the stream
            # cannot be resynchronised: count it and drop the link
            # (connection_lost redials a fresh one).
            ready += error.decoded
            owner.decode_errors += 1
            self.transport.close()
        else:
            ready += pairs
        if ready and owner._waiting:
            owner._loop.stop()


class AsyncioTransport(Transport):
    """Low-level operations over real localhost sockets.

    With empty ``addresses`` the transport hosts one asyncio server per
    sim server on its own event loop (single-process cluster, as
    ``repro cluster`` runs it); with addresses it connects to externally
    hosted ``repro serve`` processes, one ``host:port`` per server
    index.  The two modes do not mix: the list must name an address for
    *every* server or be empty — :meth:`bind` rejects a partial list,
    because an op routed to an unlisted server would have no connection
    to go out on and the run would stall silently.

    A closed transport can be started again; self-hosted replicas keep
    their state across it.

    ``codec`` exists for the end-to-end benchmark harness
    (``benchmarks/e2e``), its only caller: it must be ``"binary"`` or an
    object whose ``name`` is ``"binary"`` (the harness's traced
    wrapper), and changes nothing, for binary is the only wire format.
    """

    active = True
    remote = True

    def __init__(
        self,
        addresses: "Tuple[str, ...]" = (),
        host: str = "127.0.0.1",
        idle_timeout: float = 5.0,
        codec: Any = "binary",
    ):
        if getattr(codec, "name", codec) != "binary":
            raise InvalidConfig(
                f"the wire format is binary; cannot speak codec {codec!r}"
            )
        super().__init__()
        self.addresses = tuple(addresses)
        self.host = host
        self.idle_timeout = idle_timeout
        self.ports: "Dict[int, int]" = {}
        self.servers: "Dict[int, ReplicaServer]" = {}
        self._placements: "Dict[int, List[ReplicaSpec]]" = {}
        #: ``(host, port)`` of each external server, parsed at bind.
        self._dial: "List[Tuple[str, int]]" = []
        #: object index -> index of the server hosting it, set at bind.
        self._server_of: "Dict[int, int]" = {}
        self._loop: "Optional[asyncio.AbstractEventLoop]" = None
        self._started = False
        #: True while flush_idle runs the loop waiting for a response.
        self._waiting = False
        #: results of the ops that arrived and have not responded: the
        #: ``request_arrived`` oracle is membership here.
        self._results: "Dict[int, Any]" = {}
        #: server indices being blackholed (partition injection): request
        #: frames to them are held, so no response comes back until the
        #: partition heals — the protocol sees an unresponsive server,
        #: which is exactly what a network partition looks like from one
        #: side, on a channel that loses nothing.
        self._blackhole: "frozenset[int]" = frozenset()
        #: frames dropped on down links: never sent (diagnostics).
        self.dropped_frames = 0
        #: frames held for a blackholed server (diagnostics).
        self.held_frames = 0
        #: links dropped because a response frame failed to decode.
        self.decode_errors = 0
        self._reset_run()

    def _reset_run(self) -> None:
        """State of one start()..close() run; a restart inherits none."""
        self._links: "Dict[int, _ReplicaLink]" = {}
        #: self-hosted listeners; a crashed replica has none.
        self._listeners: "Dict[int, Any]" = {}
        #: where each server lives, learned at _open; reconnects dial these.
        self._endpoints: "Dict[int, Tuple[str, int]]" = {}
        #: server indices whose connection is currently down (EOF, refused).
        self._down: "Set[int]" = set()
        #: the live redial loop of a down link, at most one per server
        #: (asyncio holds tasks weakly: this keeps them alive).
        self._redials: "Dict[int, asyncio.Task]" = {}
        #: first failure of a task or loop callback; flush_idle re-raises.
        self._background_error: "Optional[BaseException]" = None
        #: requests queued per server index since the last idle flush.
        self._outbox: "Dict[int, List[Any]]" = {}
        #: requests to each blackholed server, in op-id order, held
        #: until the partition heals.
        self._held: "Dict[int, List[Any]]" = {}
        #: the last flush's memo of parsed answers
        #: (``decode_binary_responses``'s ``parsed``).
        self._parsed: "Dict[bytes, Any]" = {}
        #: decoded (op, result) responses not yet pumped.
        self._ready: "List[Tuple[int, Any]]" = []
        #: ops sent (or dropped) and not answered; a restart forgets
        #: them, for nothing sent on the old links will be answered.
        self._inflight: "Set[int]" = set()

    # -- wiring ------------------------------------------------------------

    def bind(self, kernel) -> None:
        super().bind(kernel)
        object_map = kernel.object_map
        self._placements = snapshot_placements(object_map)
        self._server_of = {
            object_id.index: object_map.server_of(object_id).index
            for object_id in object_map.object_ids
        }
        if self.addresses and len(self.addresses) != len(self._placements):
            raise InvalidConfig(
                f"asyncio transport got {len(self.addresses)} address(es)"
                f" for {len(self._placements)} servers: --address must be"
                " given once per server index, in order (or not at all,"
                " to self-host every server); mixing external and"
                " self-hosted servers is not supported"
            )
        self._dial = [
            _parse_address(address, self.host) for address in self.addresses
        ]

    def start(self) -> None:
        """Bring the event loop and the cluster up (idempotent).

        Also the way back from :meth:`close`: link state of the previous
        run is forgotten, self-hosted replicas keep their objects.
        """
        if self._started:
            return
        self._reset_run()
        self._started = True
        loop = self._loop = asyncio.new_event_loop()
        loop.set_exception_handler(self._on_loop_error)
        try:
            loop.run_until_complete(
                asyncio.wait_for(self._open(), STARTUP_TIMEOUT)
            )
        except (OSError, ValueError, asyncio.TimeoutError) as error:
            self.close()
            raise TransportUnavailable(
                f"asyncio transport failed to start: {error!r}"
            ) from error

    def close(self) -> None:
        loop = self._loop
        if loop is None:
            return
        self._started = False  # from here on a lost link is not redialed
        try:
            loop.run_until_complete(self._shutdown())
        finally:
            loop.close()
            self._loop = None

    # -- on the event loop ---------------------------------------------------

    def _reap_task(self, task: "asyncio.Task") -> None:
        if not task.cancelled() and task.exception() is not None:
            self._fail(task.exception())

    def _on_loop_error(self, loop, context: "Dict[str, Any]") -> None:
        """Loop exception handler: a protocol callback or timer raised."""
        error = context.get("exception")
        if isinstance(error, OSError):
            return  # a broken socket: connection_lost handles the link
        self._fail(error or TransportUnavailable(context["message"]))

    def _fail(self, error: BaseException) -> None:
        if self._background_error is None:
            self._background_error = error
        if self._waiting:
            self._loop.stop()

    async def _open(self) -> None:
        if self._dial:
            self._endpoints.update(enumerate(self._dial))
        else:
            for server_index, replicas in self._placements.items():
                if server_index not in self.servers:
                    self.servers[server_index] = ReplicaServer(server_index, replicas)
                await self._listen(server_index, 0)
        for server_index in self._endpoints:
            await self._connect(server_index)

    async def _listen(self, server_index: int, port: int) -> None:
        listener = await self._loop.create_server(
            self.servers[server_index].connection, self.host, port
        )
        self._listeners[server_index] = listener
        port = listener.sockets[0].getsockname()[1]
        self.ports[server_index] = port
        self._endpoints[server_index] = (self.host, port)

    async def _connect(self, server_index: int) -> None:
        host, port = self._endpoints[server_index]
        _, link = await self._loop.create_connection(
            lambda: _ReplicaLink(self, server_index), host, port
        )
        self._links[server_index] = link

    async def _shutdown(self) -> None:
        redials = list(self._redials.values())
        for task in redials:
            task.cancel()
        await asyncio.gather(*redials, return_exceptions=True)
        for link in self._links.values():
            link.transport.abort()
        for server_index, listener in self._listeners.items():
            listener.close()
            self.servers[server_index].drop_connections()
            await listener.wait_closed()
        # aborted transports close their sockets in a call_soon: give
        # those callbacks the iteration they need before the loop closes.
        await asyncio.sleep(0)

    # -- link supervision ----------------------------------------------------

    def _link_down(self, server_index: int, link: _ReplicaLink) -> None:
        """The connection to ``server_index`` broke: mark it down and
        redial (bounded backoff) until it answers or we shut down.

        Meanwhile frames to the server are dropped — an unresponsive
        server is exactly what the quorum protocols tolerate.  The redial
        timers advance when the loop runs: inside any call that waits.
        """
        if (
            not self._started
            or self._links.get(server_index) is not link
            or server_index in self._down
        ):
            return
        self._down.add(server_index)
        self._start_redial(server_index)

    def _start_redial(self, server_index: int) -> None:
        # the task is kept and its failure observed (lint rule R008):
        # a buggy redialer fails the run at the next flush_idle.
        if server_index not in self._redials:
            task = asyncio.ensure_future(
                self._redial(server_index), loop=self._loop
            )
            self._redials[server_index] = task
            task.add_done_callback(self._reap_task)

    async def _redial(self, server_index: int) -> None:
        backoff = 0.05
        try:
            while True:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 0.5)
                try:
                    await self._connect(server_index)
                except OSError:
                    continue
                self._down.discard(server_index)
                return
        finally:
            del self._redials[server_index]

    def set_blackhole(self, server_indices) -> None:
        """Partition injection: hold every frame to these servers.

        From the protocol's point of view a blackholed server is
        unresponsive; operations routed to it stay pending (they are
        covering, per the model) while quorums complete on the rest.
        A server that leaves the partition (``set_blackhole(())`` heals
        it) gets the frames held for it at the next flush, in op-id
        order and ahead of newer frames: the channel is reliable, only
        slow.
        """
        blackhole = frozenset(server_indices)
        outbox = self._outbox
        for server_index in sorted(self._blackhole - blackhole):
            held = self._held.pop(server_index, None)
            if held:
                held += outbox.get(server_index, ())
                outbox[server_index] = held
        self._blackhole = blackhole

    # -- self-hosted replica crash/restart ----------------------------------

    def crash_replica(self, server_index: int) -> None:
        """Kill a self-hosted replica: close its listener and connection.

        Self-hosted mode only.  The replica's object state is *retained*
        (its :class:`ReplicaServer` survives) — :meth:`restart_replica`
        models a crash-recover server with stable storage coming back on
        the same port.
        """
        if self.addresses:
            raise TransportUnavailable(
                "crash_replica controls self-hosted replicas; external"
                " `repro serve` processes are crashed by killing them"
            )
        self.start()
        listener = self._listeners.pop(server_index, None)
        if listener is None:
            return  # already crashed
        self._down.add(server_index)
        listener.close()
        # Dropping the listener does not drop the established
        # connection; kill both ends so in-flight requests fail like a
        # real process death, not a graceful drain.
        self.servers[server_index].drop_connections()
        self._links[server_index].transport.abort()
        self._loop.run_until_complete(listener.wait_closed())

    def restart_replica(self, server_index: int) -> None:
        """Bring a crashed self-hosted replica back on its old port.

        The replica re-serves from its retained state (stable storage);
        the supervision loop re-establishes the connection and the
        transport resumes routing to it.
        """
        crashed = self._started and server_index in self.servers
        if not crashed or server_index in self._listeners:
            raise TransportUnavailable(f"replica {server_index} is not crashed")
        self._loop.run_until_complete(
            self._listen(server_index, self.ports[server_index])
        )
        self._start_redial(server_index)

    # -- transport interface -----------------------------------------------

    def send_request(self, op) -> None:
        """Queue the request leg: only an append.  What the kernel
        triggers between two idle points is encoded as one segment and
        leaves in one ``write`` per connection (pipelining), from
        :meth:`flush_idle`."""
        if not self._started:
            self.start()
        server_index = self._server_of[op.object_id.index]
        self._inflight.add(op.op_id)
        self._outbox.setdefault(server_index, []).append(op)

    def _flush_outbox(self) -> None:
        # Frames to a down server are dropped; frames to a blackholed
        # one are held until set_blackhole heals it.  The held frames
        # were queued in trigger order, so they stay in op-id order.  A
        # failing write surfaces in connection_lost, not here.
        # The outbox is taken before anything is encoded: an unencodable
        # request raises here once, and no segment is written twice.
        # One memo per flush codes each value the segments share once,
        # and the answers to the flush are parsed through another.
        down, blackhole, links = self._down, self._blackhole, self._links
        outbox, self._outbox = self._outbox, {}
        packed: "Dict[tuple, bytearray]" = {}
        self._parsed = {}
        for server_index, ops in outbox.items():
            if server_index in down:
                self.dropped_frames += len(ops)
            elif server_index in blackhole:
                self.held_frames += len(ops)
                self._held.setdefault(server_index, []).extend(ops)
            else:
                links[server_index].transport.write(
                    encode_binary_requests(ops, packed)
                )

    def request_arrived(self, op) -> bool:
        return op.op_id in self._results

    def result_for(self, op) -> Any:
        # the op is responding: the oracle never asks about it again.
        return self._results.pop(op.op_id)

    def send_response(self, op) -> None:
        # the socket round-trip already happened on the request leg;
        # delivery to the invoking client is local.
        self._kernel.deliver(op)

    # -- progress ----------------------------------------------------------

    def _deliver_ready(self) -> bool:
        """Hand every parsed response to the kernel, in op-id order;
        True if any.

        Replicas answer in per-server batches, so the ready list
        interleaves op ids; an arrival below the largest respondable op
        makes ``Kernel.arrive`` insert it in the middle of the kernel's
        ready list.  Sorting the batch first leaves the kernel in the
        same (sorted) state and makes every arrival an append.
        """
        ready = self._ready
        if not ready:
            return False
        ready.sort(key=itemgetter(0))
        inflight, results = self._inflight, self._results
        arrive = self._kernel.arrive
        for op_value, result in ready:
            inflight.discard(op_value)
            results[op_value] = result
            arrive(OpId(op_value))
        ready.clear()
        return True

    def pump(self) -> None:
        if self._ready:
            self._deliver_ready()

    def flush_idle(self) -> bool:
        """Nothing is enabled locally: write what the kernel triggered
        and wait (bounded, wall-clock) for the next replica answer.
        This is where real-network asynchrony meets the step simulation
        — the wait is physical, not simulated — and the one place the
        event loop runs during an operation."""
        if not self._inflight or not self._started:
            return False
        self._flush_outbox()
        if not self._ready and self._background_error is None:
            loop = self._loop
            deadline = loop.call_later(self.idle_timeout, loop.stop)
            self._waiting = True
            try:
                loop.run_forever()
            finally:
                self._waiting = False
                deadline.cancel()
        if self._background_error is not None:
            raise self._background_error
        return self._deliver_ready()  # a burst of answers wakes together

    def describe(self) -> "Dict[str, Any]":
        return {
            "transport": "asyncio",
            "host": self.host,
            "ports": dict(self.ports),
            "addresses": list(self.addresses),
            "dropped_frames": self.dropped_frames,
            "held_frames": self.held_frames,
            "decode_errors": self.decode_errors,
        }


def _serve_all(listeners, host: str, announce=print) -> None:
    """Serve ``(replica server, port, label)`` triples until interrupted."""

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        servers = []
        for replica_server, port, label in listeners:
            try:
                server = await loop.create_server(
                    replica_server.connection, host, port
                )
            except OSError as error:
                for opened in servers:
                    opened.close()
                raise TransportUnavailable(
                    f"cannot serve {label}: {error}"
                ) from error
            bound = server.sockets[0].getsockname()
            # repro-lint: disable=R007 one bootstrap line, printed before any traffic
            announce(f"serving {label} on {bound[0]}:{bound[1]}")
            sys.stdout.flush()  # a supervisor reads this line from a pipe
            servers.append(server)
        await asyncio.gather(*(server.serve_forever() for server in servers))

    asyncio.run(_serve())


def run_replica_server(
    server_index: int,
    replicas: "List[ReplicaSpec]",
    host: str = "127.0.0.1",
    port: int = 0,
    announce=print,
) -> None:
    """Host one sim server's replicas until interrupted (``repro serve``)."""
    replica_server = ReplicaServer(server_index, replicas)
    _serve_all([(replica_server, port, f"s{server_index}")], host, announce)


def run_shard_servers(
    server_index: int,
    replicas: "List[ReplicaSpec]",
    ports: "List[int]",
    host: str = "127.0.0.1",
) -> None:
    """Host sim server ``server_index`` of *every* shard in one process.

    A sharded service is S independent fleets; a physical node hosts its
    replica of each fleet.  Each shard gets its own listener on its entry
    of ``ports`` (0: ephemeral; shards are independent quorum systems —
    one socket per shard keeps their request streams isolated), announced
    as ``serving s<i>/shard<j> on h:p`` so a supervisor can collect the
    per-shard address lists.  A restarted process must come back on the
    ports its clients' reconnect loops are dialling.
    """
    listeners = [
        (
            ReplicaServer(server_index, replicas),
            port,
            f"s{server_index}/shard{shard_index}",
        )
        for shard_index, port in enumerate(ports)
    ]
    _serve_all(listeners, host)
