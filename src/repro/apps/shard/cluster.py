"""The cluster behind ``repro loadgen``: a sharded service and its replicas.

The replicas run in-process (``sim``), on self-hosted sockets
(``asyncio``), or in one ``repro serve --shards`` process per server
(``spawn``), whose command line only :func:`serve_argv` writes.
"""

from __future__ import annotations

import re
import subprocess
import sys
import threading
from typing import Dict, List, Optional, Tuple

from repro.apps.shard.config import ShardServiceConfig
from repro.apps.shard.loadgen import Scenario
from repro.apps.shard.service import ShardedKVService
from repro.errors import InvalidConfig, QuorumUnavailable, TransportUnavailable

CLUSTER_TRANSPORTS = ("sim", "asyncio", "spawn")

#: Seconds a spawned ``repro serve --shards`` process has to announce
#: every shard listener before the spawn fails.
SPAWN_ANNOUNCE_DEADLINE_S = 30.0

_ANNOUNCEMENT = re.compile(rb"serving s\d+/shard(\d+) on [\d.]+:(\d+)")


def serve_argv(
    config: ShardServiceConfig,
    server_index: int,
    ports: "Optional[Dict[int, int]]" = None,
) -> "List[str]":
    """``repro serve`` arguments hosting server ``server_index`` of every
    shard of the uniform ``config``; ``ports`` pins the listener ports."""
    if len(set(config.shards)) != 1:
        raise InvalidConfig("a serve process needs one config for every shard")
    shard = config.shards[0]
    argv = [
        "serve", "--shards", str(config.n_shards),
        "--substrate", shard.substrate,
        "-n", str(shard.n), "-f", str(shard.f), "-k", str(shard.k_writers),
        "--capacity", str(shard.capacity), "--server", str(server_index),
    ]
    if ports:
        argv += ["--ports", ",".join(str(ports[j]) for j in sorted(ports))]
    return argv


def spawn_shard_node(
    config: ShardServiceConfig,
    server_index: int,
    ports: "Optional[Dict[int, int]]" = None,
) -> "Tuple[subprocess.Popen, Dict[int, int]]":
    """Start one ``repro serve --shards`` process; returns ``(proc,
    {shard: port})`` once it announced every shard listener.

    At :data:`SPAWN_ANNOUNCE_DEADLINE_S` a timer kills a silent child, so
    the read ends on EOF (:class:`~repro.errors.TransportUnavailable`);
    a child that exits first raises :class:`~repro.errors.QuorumUnavailable`.
    On any error the child is killed and reaped.  Only stdout is piped:
    stderr is inherited, so no unread pipe can fill.
    """
    argv = serve_argv(config, server_index, ports)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *argv], stdout=subprocess.PIPE
    )
    expired = threading.Event()

    def expire() -> None:
        expired.set()
        proc.kill()

    timer = threading.Timer(SPAWN_ANNOUNCE_DEADLINE_S, expire)
    timer.start()
    announced: "Dict[int, int]" = {}
    try:
        for line in proc.stdout:
            match = _ANNOUNCEMENT.search(line)
            if match:
                announced[int(match.group(1))] = int(match.group(2))
            if len(announced) == config.n_shards:
                break
        timer.cancel()
        timer.join()
        if expired.is_set():
            raise TransportUnavailable(
                f"serve process for server {server_index} announced"
                f" {len(announced)} of {config.n_shards} listener(s) in"
                f" {SPAWN_ANNOUNCE_DEADLINE_S} s: start-up deadline passed"
            )
        if len(announced) < config.n_shards:
            raise QuorumUnavailable(
                f"serve process for server {server_index} exited before"
                " announcing its listeners"
            )
    except BaseException:
        timer.cancel()
        proc.kill()
        proc.wait()
        raise
    return proc, announced


class ShardCluster:
    """A :class:`ShardedKVService` and the replicas behind it: their
    crashes and restarts, the fault gauntlet and teardown.  A failed
    constructor closes what it started."""

    def __init__(
        self,
        config: ShardServiceConfig,
        transport: str = "sim",
        idle_timeout: float = 0.02,
    ):
        if transport not in CLUSTER_TRANSPORTS:
            raise InvalidConfig(
                f"transport must be one of {CLUSTER_TRANSPORTS},"
                f" got {transport!r}"
            )
        self.config = config
        self.transport = transport
        #: spawn mode: per server, its serve process and the ports of
        #: its shard listeners (a restart reuses them).
        self.procs: "Dict[int, subprocess.Popen]" = {}
        self.ports: "Dict[int, Dict[int, int]]" = {}
        self.service: "Optional[ShardedKVService]" = None
        try:
            self.service = ShardedKVService(
                config, transports=self._transports(idle_timeout)
            )
        except BaseException:
            self.close()
            raise

    def _transports(self, idle_timeout: float):
        if self.transport == "sim":
            return None
        from repro.net.asyncio_transport import AsyncioTransport

        if self.transport == "asyncio":
            return [
                AsyncioTransport(idle_timeout=idle_timeout)
                for _ in self.config.shards
            ]
        servers = range(self.config.shards[0].n)
        for server_index in servers:
            self._spawn(server_index)
        return [
            AsyncioTransport(
                addresses=tuple(
                    f"127.0.0.1:{self.ports[server_index][shard_index]}"
                    for server_index in servers
                ),
                idle_timeout=idle_timeout,
            )
            for shard_index in range(self.config.n_shards)
        ]

    def _spawn(self, server_index: int) -> None:
        self.procs[server_index], self.ports[server_index] = spawn_shard_node(
            self.config, server_index, self.ports.get(server_index)
        )

    def crash_replica(self, server_index: int) -> str:
        """Crash server ``server_index`` on every shard: SIGKILL its serve
        process, or close its self-hosted listeners (state retained)."""
        if self.transport == "spawn":
            self.procs[server_index].kill()
            self.procs[server_index].wait()
            return f"SIGKILLed serve process for server {server_index}"
        for fleet in self.service.fleets:
            fleet.transport.crash_replica(server_index)
        return f"crashed self-hosted replica {server_index}"

    def restart_replica(self, server_index: int) -> str:
        """Bring a crashed replica back on its old ports (a spawned one
        comes back empty)."""
        if self.transport == "spawn":
            self._spawn(server_index)
            return (
                f"restarted serve process for server {server_index}"
                " on its old ports"
            )
        for fleet in self.service.fleets:
            fleet.transport.restart_replica(server_index)
        return f"restarted replica {server_index}"

    def gauntlet(self, duration: float) -> "List[Scenario]":
        """``--scenario gauntlet`` over a ``duration``-second run (socket
        transports only): blackhole server 1 at 20% and heal it at 40%,
        crash the last server at 55% and restart it at 75%."""
        n = min(shard.n for shard in self.config.shards)
        partitioned, crashed = 1 % n, n - 1

        def partition() -> str:
            self.service.partition({partitioned})
            return f"blackholed server {partitioned} on every shard"

        def heal() -> str:
            self.service.heal()
            return "partition healed"

        return [
            Scenario(0.20 * duration, "partition", partition),
            Scenario(0.40 * duration, "heal", heal),
            Scenario(0.55 * duration, "crash", lambda: self.crash_replica(crashed)),
            Scenario(
                0.75 * duration, "restart", lambda: self.restart_replica(crashed)
            ),
        ]

    def close(self) -> None:
        """Close the service, then terminate every live serve process."""
        try:
            if self.service is not None:
                self.service.close()
        finally:
            for proc in self.procs.values():
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait()

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
