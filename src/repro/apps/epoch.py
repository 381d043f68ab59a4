"""A monotone epoch service on the f-tolerant max-register.

Reconfigurable systems coordinate through a monotonically increasing
epoch (configuration version): processes *advance* the epoch and *observe*
the latest one, and stale epochs must never resurface.  A max-register is
exactly this object, which is why the paper treats it as a first-class
base type — and why its 2f+1 emulation bound matters in practice.

``EpochService`` wraps :class:`~repro.core.ft_maxreg.FTMaxRegister`:

* ``advance()`` — observe the current epoch and bump it by one
  (read-max then write-max; concurrent advancers may coalesce onto the
  same epoch, which is the standard, safe semantics for configuration
  versions: epochs never regress).
* ``current()`` — read-max.
* ``propose(epoch)`` — write-max of an externally chosen epoch.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ft_maxreg import FTMaxRegister
from repro.errors import BoundViolation, QuorumUnavailable
from repro.sim.ids import ClientId
from repro.sim.kernel import Environment
from repro.sim.scheduling import Scheduler


class EpochService:
    """Fault-tolerant monotone epochs for any number of processes."""

    def __init__(
        self,
        n: int = 5,
        f: int = 2,
        scheduler: "Optional[Scheduler]" = None,
        environment: "Optional[Environment]" = None,
    ):
        self.register = FTMaxRegister(
            n=n,
            f=f,
            initial_value=0,
            write_back=True,
            scheduler=scheduler,
            environment=environment,
        )
        self._clients = {}

    def _client(self, process: int):
        runtime = self._clients.get(process)
        if runtime is None:
            runtime = self.register.add_client(ClientId(process))
            self._clients[process] = runtime
        return runtime

    def _drive(self, runtime) -> object:
        result = self.register.system.run_to_quiescence()
        if not result.satisfied:
            raise QuorumUnavailable(
                f"epoch operation did not complete: {result}"
            )
        return self.register.history.all_ops()[-1].result

    # -- operations ---------------------------------------------------------

    def current(self, process: int = 0) -> int:
        """The latest observed epoch."""
        runtime = self._client(process)
        runtime.enqueue("read_max")
        return self._drive(runtime)

    def propose(self, epoch: int, process: int = 0) -> None:
        """Install ``epoch`` if it is ahead of the current one."""
        if epoch < 0:
            raise BoundViolation("epochs are non-negative")
        runtime = self._client(process)
        runtime.enqueue("write_max", epoch)
        self._drive(runtime)

    def advance(self, process: int = 0) -> int:
        """Move to a fresh epoch; returns the epoch this process installed
        (the global epoch is >= it from now on)."""
        observed = self.current(process)
        target = observed + 1
        self.propose(target, process)
        return target

    # -- failure injection ------------------------------------------------------

    def crash_server(self, server_index: int) -> None:
        from repro.sim.ids import ServerId

        self.register.kernel.crash_server(ServerId(server_index))

    @property
    def base_objects(self) -> int:
        """2f+1 max-registers at the minimum deployment (Table 1)."""
        return self.register.total_objects
