"""An epoch-guarded configuration service.

The classic composition the paper's objects enable: configuration
documents live in a replicated register (any substrate), and a monotone
epoch (a max-register) fences installations — an installer that lost a
race observes a higher epoch and refuses to clobber the newer
configuration.  This is the coordination kernel of reconfigurable storage
systems (the paper cites RAMBO and the reconfiguration tutorial as the
consumers of exactly these primitives).

Semantics:

* ``install(config, process)`` — claim the next epoch e; if by the time
  the claim lands a higher epoch exists, fail (``InstallRaced``); else
  write ``(e, config)`` to the config register and return ``e``.
* ``fetch()`` — read ``(epoch, config)``; the returned epoch is never
  smaller than any epoch whose installation completed before the fetch
  began (per-object guarantees of the underlying emulations).

Losing an ``install`` race is *detected*, never silent: epochs are
claimed through ``write_max`` and verified by a re-read.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.apps.epoch import EpochService
from repro.core.abd import ABDEmulation
from repro.errors import QuorumUnavailable
from repro.sim.scheduling import RandomScheduler


class InstallRaced(RuntimeError):
    """Another process claimed a higher epoch during this install."""


class ConfigService:
    """Epoch-fenced configuration storage over emulated objects."""

    def __init__(
        self,
        n: int = 5,
        f: int = 2,
        initial_config: Any = None,
        seed: int = 0,
    ):
        self.epochs = EpochService(
            n=n, f=f, scheduler=RandomScheduler(seed)
        )
        self.store = ABDEmulation(
            n=n,
            f=f,
            initial_value=(0, initial_config),
            scheduler=RandomScheduler(seed + 1),
        )
        self._clients = {}

    def _store_client(self, process: int):
        from repro.sim.ids import ClientId

        runtime = self._clients.get(process)
        if runtime is None:
            runtime = self.store.add_client(ClientId(process))
            self._clients[process] = runtime
        return runtime

    def _drive_store(self, runtime):
        result = self.store.system.run_to_quiescence()
        if not result.satisfied:
            raise QuorumUnavailable(
                f"config operation did not complete: {result}"
            )
        return self.store.history.all_ops()[-1].result

    # -- operations -----------------------------------------------------------

    def install(self, config: Any, process: int = 0) -> int:
        """Install ``config`` under a fresh epoch; raises
        :class:`InstallRaced` if a concurrent installer won."""
        claimed = self.epochs.advance(process=process)
        current = self.epochs.current(process=process)
        if current > claimed:
            raise InstallRaced(
                f"claimed epoch {claimed} but {current} already exists"
            )
        runtime = self._store_client(process)
        runtime.enqueue("write", (claimed, config))
        self._drive_store(runtime)
        return claimed

    def fetch(self, process: int = 0) -> "Tuple[int, Any]":
        """The installed ``(epoch, config)`` pair."""
        runtime = self._store_client(process)
        runtime.enqueue("read")
        return self._drive_store(runtime)

    def current_epoch(self, process: int = 0) -> int:
        return self.epochs.current(process=process)

    # -- failures ---------------------------------------------------------------

    def crash_server(self, server_index: int) -> None:
        """Crash the server in both underlying deployments (they model
        the same physical fleet)."""
        self.epochs.crash_server(server_index)
        from repro.sim.ids import ServerId

        self.store.kernel.crash_server(ServerId(server_index))

    @property
    def base_objects(self) -> int:
        """Space: 2(2f+1) at the minimum fleet — one max-register plus
        one RMW register object per server."""
        return (
            self.epochs.base_objects + self.store.object_map.n_objects
        )
