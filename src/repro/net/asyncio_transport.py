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

This module is exempt from lint rule R002 (see docs/LINTING.md): it is
the one place in the tree that legitimately touches wall-clock time —
socket startup and idle-drain deadlines are physical waits on a real
network, not hidden inputs to a deterministic simulation.  Nothing here
feeds timing back into scheduling decisions; kernel time remains the
step counter.
"""

from __future__ import annotations

import asyncio
import queue
import threading
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.net.transport import Transport
from repro.net.wire import get_codec
from repro.sim.ids import ObjectId, OpId
from repro.sim.objects import make_object

#: (object index, object type name, initial value) — one replica.
ReplicaSpec = Tuple[int, str, Any]


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


#: responses written between flow-control drains on a pipelined
#: connection; drains act as back-pressure checkpoints, not flushes —
#: the event loop pushes written bytes to the socket regardless.
_DRAIN_EVERY = 64


class ReplicaServer:
    """One sim server's base objects, served over codec frames.

    Requests are applied to the replicas strictly in arrival order on
    the event loop — the replica is the linearization point for its
    objects, exactly like ``BaseObject.apply`` at the respond step is in
    simulation.  The connection is pipelined: any number of requests may
    be in flight, and responses stream back in apply order without a
    per-frame drain.
    """

    def __init__(
        self,
        server_index: int,
        replicas: "List[ReplicaSpec]",
        codec: Any = "json",
    ):
        self.server_index = server_index
        self.codec = get_codec(codec) if isinstance(codec, str) else codec
        self.replicas = {
            object_index: make_object(
                type_name, ObjectId(object_index), initial_value
            )
            for object_index, type_name, initial_value in replicas
        }
        self.requests_served = 0

    async def handle(self, reader, writer) -> None:
        codec = self.codec
        read_frame = codec.read_frame
        decode_req = codec.decode_request
        encode_resp = codec.encode_response
        replicas = self.replicas
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                op = decode_req(frame)
                result = replicas[op.object_id.index].apply(op)
                self.requests_served += 1
                writer.write(encode_resp(op.op_id.value, result))
                if not self.requests_served % _DRAIN_EVERY:
                    await writer.drain()
        finally:
            writer.close()


class AsyncioTransport(Transport):
    """Low-level operations over real localhost sockets.

    With empty ``addresses`` the transport spawns one asyncio server per
    sim server inside a background event-loop thread (single-process
    cluster, as ``repro cluster`` runs it); with addresses it connects
    to externally hosted ``repro serve`` processes, one ``host:port``
    per server index.  The two modes do not mix: the list must name an
    address for *every* server or be empty — :meth:`bind` rejects a
    partial list, because an op routed to an unlisted server would have
    no connection to go out on and the run would stall silently.
    """

    active = True
    remote = True

    #: replica-server implementation for self-hosted mode; a seam for
    #: benchmarks/tests that need variant server behaviour.
    server_class = ReplicaServer

    def __init__(
        self,
        addresses: "Tuple[str, ...]" = (),
        host: str = "127.0.0.1",
        startup_timeout: float = 10.0,
        idle_timeout: float = 5.0,
        codec: Any = "json",
    ):
        super().__init__()
        self.addresses = tuple(addresses)
        self.host = host
        self.startup_timeout = startup_timeout
        self.idle_timeout = idle_timeout
        self.codec = get_codec(codec) if isinstance(codec, str) else codec
        self.ports: "Dict[int, int]" = {}
        self.servers: "Dict[int, ReplicaServer]" = {}
        self._placements: "Dict[int, List[ReplicaSpec]]" = {}
        self._loop: "Optional[asyncio.AbstractEventLoop]" = None
        self._thread: "Optional[threading.Thread]" = None
        self._ready = threading.Event()
        self._startup_error: "Optional[BaseException]" = None
        #: results coming back from replicas: {"op": int, "result": ...}.
        self._completions: "queue.Queue" = queue.Queue()
        self._results: "Dict[int, Any]" = {}
        self._arrived: "Set[int]" = set()
        self._inflight: "Set[int]" = set()
        self._writers: "Dict[int, asyncio.StreamWriter]" = {}
        self._asyncio_servers: "Dict[int, Any]" = {}
        self._started = False
        self._closing = False
        #: where each server lives, learned at _open; reconnects dial these.
        self._endpoints: "Dict[int, Tuple[str, int]]" = {}
        #: server indices whose connection is currently down (EOF, refused).
        self._down: "Set[int]" = set()
        #: server indices being blackholed (partition injection): request
        #: frames to them are silently dropped, so no response ever comes
        #: back — the protocol sees an unresponsive server, which is
        #: exactly what a network partition looks like from one side.
        self._blackhole: "frozenset[int]" = frozenset()
        #: frames dropped on down or blackholed links (diagnostics).
        self.dropped_frames = 0
        #: crashed self-hosted replicas (crash_replica/restart_replica).
        self._crashed_replicas: "Set[int]" = set()
        #: server indices with a live redial loop (at most one per link).
        self._redialing: "Set[int]" = set()
        #: live background tasks (readers, redialers): asyncio holds
        #: tasks weakly, so the set keeps them alive until done.
        self._tasks: "Set[asyncio.Task]" = set()
        #: first unexpected background-task failure (diagnostics).
        self._background_error: "Optional[BaseException]" = None
        #: frames queued per server index since the last loop flush.
        self._outbox: "Dict[int, List[bytes]]" = {}
        self._outbox_lock = threading.Lock()
        self._flush_scheduled = False

    # -- wiring ------------------------------------------------------------

    def bind(self, kernel) -> None:
        super().bind(kernel)
        self._placements = snapshot_placements(kernel.object_map)
        if self.addresses and len(self.addresses) != len(self._placements):
            raise ValueError(
                f"asyncio transport got {len(self.addresses)} address(es)"
                f" for {len(self._placements)} servers: --address must be"
                " given once per server index, in order (or not at all,"
                " to self-host every server); mixing external and"
                " self-hosted servers is not supported"
            )

    def start(self) -> None:
        """Bring the event-loop thread and the cluster up (idempotent)."""
        if self._started:
            return
        self._started = True
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-net-asyncio", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self.startup_timeout):
            raise RuntimeError("asyncio transport did not start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                "asyncio transport failed to start"
            ) from self._startup_error

    def close(self) -> None:
        self._closing = True
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=self.startup_timeout)
        self._loop = None
        self._thread = None
        self._started = False

    # -- event-loop thread -------------------------------------------------

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._open())
        except BaseException as error:  # surfaced by start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self._shutdown())
            loop.close()

    def _spawn(self, coro) -> "asyncio.Task":
        """ensure_future with an exception sink (lint rule R008).

        The task set keeps the handle alive (the event loop holds tasks
        weakly); the done-callback observes failures that escaped the
        task's own error handling, so a buggy reader or redialer fails
        loudly instead of dying silently mid-experiment.
        """
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._reap_task)
        return task

    def _reap_task(self, task: "asyncio.Task") -> None:
        self._tasks.discard(task)
        if task.cancelled():
            return
        error = task.exception()
        if error is not None:
            if self._background_error is None:
                self._background_error = error
            import sys
            import traceback

            print(
                "repro.net.asyncio_transport: background task failed:",
                file=sys.stderr,
            )
            traceback.print_exception(
                type(error), error, error.__traceback__, file=sys.stderr
            )

    async def _open(self) -> None:
        if self.addresses:
            endpoints = []
            for server_index, address in enumerate(self.addresses):
                host, _, port = address.rpartition(":")
                endpoints.append((server_index, host or self.host, int(port)))
        else:
            endpoints = []
            for server_index, replicas in self._placements.items():
                replica_server = self.server_class(
                    server_index, replicas, codec=self.codec
                )
                self.servers[server_index] = replica_server
                server = await asyncio.start_server(
                    replica_server.handle, self.host, 0
                )
                self._asyncio_servers[server_index] = server
                port = server.sockets[0].getsockname()[1]
                self.ports[server_index] = port
                endpoints.append((server_index, self.host, port))
        for server_index, host, port in endpoints:
            self._endpoints[server_index] = (host, port)
            reader, writer = await asyncio.open_connection(host, port)
            self._writers[server_index] = writer
            self._spawn(self._read_responses(server_index, reader))

    async def _read_responses(self, server_index: int, reader) -> None:
        codec = self.codec
        try:
            while True:
                frame = await codec.read_frame(reader)
                if frame is None:
                    break
                self._completions.put(codec.decode_response(frame))
        except (ConnectionError, OSError, ValueError):
            pass
        self._link_down(server_index)

    # -- link supervision ----------------------------------------------------

    def _link_down(self, server_index: int) -> None:
        """The connection to ``server_index`` broke: mark it down and keep
        redialing (bounded backoff) until it answers or we shut down.

        Runs on the event-loop thread.  While the link is down, frames to
        the server are dropped — the quorum protocols tolerate exactly
        this (an unresponsive server), so the run keeps making progress
        on the surviving replicas and catches up when the link heals.
        """
        if self._closing or server_index in self._down:
            return
        self._down.add(server_index)
        writer = self._writers.get(server_index)
        if writer is not None:
            writer.close()
        if server_index not in self._redialing:
            self._redialing.add(server_index)
            self._spawn(self._redial(server_index))

    async def _redial(self, server_index: int) -> None:
        host, port = self._endpoints[server_index]
        backoff = 0.05
        try:
            while not self._closing:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 0.5)
                if self._closing:
                    return
                try:
                    reader, writer = await asyncio.open_connection(host, port)
                except (ConnectionError, OSError):
                    continue
                self._writers[server_index] = writer
                self._down.discard(server_index)
                self._spawn(self._read_responses(server_index, reader))
                return
        finally:
            self._redialing.discard(server_index)

    def set_blackhole(self, server_indices) -> None:
        """Partition injection: drop every frame to these servers.

        From the protocol's point of view a blackholed server is
        unresponsive; operations routed to it stay pending (they are
        covering, per the model) while quorums complete on the rest.
        ``set_blackhole(())`` heals the partition.
        """
        self._blackhole = frozenset(server_indices)

    def heal(self) -> None:
        """Clear any injected partition."""
        self._blackhole = frozenset()

    # -- self-hosted replica crash/restart ----------------------------------

    def crash_replica(self, server_index: int) -> None:
        """Kill a self-hosted replica: close its listener and connection.

        Self-hosted mode only.  The replica's object state is *retained*
        (its :class:`ReplicaServer` survives) — :meth:`restart_replica`
        models a crash-recover server with stable storage coming back on
        the same port.
        """
        if self.addresses:
            raise RuntimeError(
                "crash_replica controls self-hosted replicas; external"
                " `repro serve` processes are crashed by killing them"
            )
        if server_index in self._crashed_replicas:
            return
        self._crashed_replicas.add(server_index)

        async def _down() -> None:
            server = self._asyncio_servers.pop(server_index, None)
            if server is not None:
                server.close()
                await server.wait_closed()
            # Dropping the listener does not drop the established
            # connection; close it too so in-flight requests fail like a
            # real process death, not a graceful drain.
            writer = self._writers.get(server_index)
            if writer is not None:
                writer.close()
            self._down.add(server_index)

        asyncio.run_coroutine_threadsafe(_down(), self._loop).result(
            self.startup_timeout
        )

    def restart_replica(self, server_index: int) -> None:
        """Bring a crashed self-hosted replica back on its old port.

        The replica re-serves from its retained state (stable storage);
        the supervision loop re-establishes the connection and the
        transport resumes routing to it.
        """
        if server_index not in self._crashed_replicas:
            raise RuntimeError(f"replica {server_index} is not crashed")

        async def _up() -> None:
            replica_server = self.servers[server_index]
            server = await asyncio.start_server(
                replica_server.handle,
                self.host,
                self.ports[server_index],
            )
            self._asyncio_servers[server_index] = server
            if (
                server_index in self._down
                and server_index not in self._redialing
            ):
                self._redialing.add(server_index)
                self._spawn(self._redial(server_index))

        asyncio.run_coroutine_threadsafe(_up(), self._loop).result(
            self.startup_timeout
        )
        self._crashed_replicas.discard(server_index)

    async def _shutdown(self) -> None:
        # Closing the client-side connections first lets every suspended
        # coroutine finish on EOF: replica handlers see readline() -> b""
        # and return, which in turn closes their response streams and ends
        # the _read_responses tasks.  Cancellation is a last resort only —
        # cancelling a start_server handler task makes asyncio's stream
        # protocol log a spurious CancelledError from its done-callback.
        for writer in self._writers.values():
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        for server in self._asyncio_servers.values():
            server.close()
            await server.wait_closed()
        tasks = [
            task
            for task in asyncio.all_tasks()
            if task is not asyncio.current_task()
        ]
        if tasks:
            _, pending = await asyncio.wait(tasks, timeout=1.0)
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

    def _flush_outbox(self) -> None:
        # runs on the event-loop thread: ship everything queued since the
        # last flush, one write per connection regardless of how many
        # requests the kernel triggered in between.  Frames to down or
        # blackholed servers are dropped, never buffered: replaying stale
        # requests after a heal would reorder the request leg, and the
        # quorum protocols neither need nor expect retransmission.
        with self._outbox_lock:
            outbox, self._outbox = self._outbox, {}
            self._flush_scheduled = False
        writers = self._writers
        blackhole = self._blackhole
        for server_index, frames in outbox.items():
            if server_index in self._down or server_index in blackhole:
                self.dropped_frames += len(frames)
                continue
            try:
                writers[server_index].write(
                    frames[0] if len(frames) == 1 else b"".join(frames)
                )
            except (ConnectionError, OSError):
                self.dropped_frames += len(frames)
                self._link_down(server_index)

    # -- transport interface -----------------------------------------------

    def send_request(self, op) -> None:
        """Queue the request leg; frames coalesce per event-loop tick.

        The kernel thread only appends to the outbox — at most one loop
        wakeup is in flight at a time, so a burst of triggers between
        loop ticks becomes a single ``writer.write`` per connection
        (pipelining) instead of one wakeup + write + drain per op.
        """
        if not self._started:
            self.start()
        kernel = self._kernel
        server_index = kernel.object_map.server_of(op.object_id).index
        self._inflight.add(op.op_id.value)
        data = self.codec.encode_request(op)
        with self._outbox_lock:
            self._outbox.setdefault(server_index, []).append(data)
            schedule = not self._flush_scheduled
            if schedule:
                self._flush_scheduled = True
        if schedule:
            self._loop.call_soon_threadsafe(self._flush_outbox)

    def request_arrived(self, op) -> bool:
        return op.op_id.value in self._arrived

    def result_for(self, op) -> Any:
        # the op is responding: the oracle never asks about it again.
        self._arrived.discard(op.op_id.value)
        return self._results.pop(op.op_id.value)

    def send_response(self, op) -> None:
        # the socket round-trip already happened on the request leg;
        # delivery to the invoking client is local.
        self._kernel.deliver(op)

    # -- progress ----------------------------------------------------------

    def _complete(self, frame: "Dict[str, Any]") -> None:
        op_value = frame["op"]
        self._inflight.discard(op_value)
        self._results[op_value] = frame["result"]
        self._arrived.add(op_value)
        self._kernel.arrive(OpId(op_value))

    def pump(self) -> None:
        while True:
            try:
                frame = self._completions.get_nowait()
            except queue.Empty:
                return
            self._complete(frame)

    def flush_idle(self) -> bool:
        """Nothing is enabled locally: wait (bounded, wall-clock) for the
        next replica answer.  This is where real-network asynchrony meets
        the step simulation — the wait is physical, not simulated."""
        if not self._inflight:
            return False
        try:
            frame = self._completions.get(timeout=self.idle_timeout)
        except queue.Empty:
            return False
        self._complete(frame)
        # Pipelined runs land answers in bursts: drain whatever else has
        # already arrived so one wall-clock wait can wake many ops.
        while True:
            try:
                frame = self._completions.get_nowait()
            except queue.Empty:
                break
            self._complete(frame)
        return True

    def describe(self) -> "Dict[str, Any]":
        return {
            "transport": "asyncio",
            "host": self.host,
            "ports": dict(self.ports),
            "addresses": list(self.addresses),
            "codec": self.codec.name,
            "dropped_frames": self.dropped_frames,
        }


def run_replica_server(
    server_index: int,
    replicas: "List[ReplicaSpec]",
    host: str = "127.0.0.1",
    port: int = 0,
    announce=print,
    codec: Any = "json",
) -> None:
    """Host one sim server's replicas until interrupted (``repro serve``)."""

    async def _serve() -> None:
        replica_server = ReplicaServer(server_index, replicas, codec=codec)
        server = await asyncio.start_server(replica_server.handle, host, port)
        bound = server.sockets[0].getsockname()
        announce(f"serving s{server_index} on {bound[0]}:{bound[1]}")
        async with server:
            await server.serve_forever()

    asyncio.run(_serve())


def run_shard_servers(
    server_index: int,
    shard_replicas: "Dict[int, List[ReplicaSpec]]",
    host: str = "127.0.0.1",
    ports: "Optional[Dict[int, int]]" = None,
    announce=print,
    codec: Any = "json",
) -> None:
    """Host sim server ``server_index`` of *every* shard in one process.

    A sharded service is S independent fleets; a physical node hosts its
    replica of each fleet.  Each shard gets its own listener (shards are
    independent quorum systems — one socket per shard keeps their request
    streams isolated), announced as ``serving s<i>/shard<j> on h:p`` so a
    supervisor can collect the per-shard address lists.  ``ports`` pins
    each shard's listener port — a restarted process must come back on
    the ports its clients' reconnect loops are dialling.
    """

    async def _serve() -> None:
        servers = []
        for shard_index in sorted(shard_replicas):
            replica_server = ReplicaServer(
                server_index, shard_replicas[shard_index], codec=codec
            )
            port = ports.get(shard_index, 0) if ports else 0
            server = await asyncio.start_server(
                replica_server.handle, host, port
            )
            bound = server.sockets[0].getsockname()
            announce(
                f"serving s{server_index}/shard{shard_index}"
                f" on {bound[0]}:{bound[1]}"
            )
            servers.append(server)
        await asyncio.gather(*(s.serve_forever() for s in servers))

    asyncio.run(_serve())
