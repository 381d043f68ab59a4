"""The transport seam: how low-level operations travel.

A :class:`Transport` mediates the two message legs of every low-level
operation:

* the **request leg** — from ``Context.trigger`` to the base object's
  server (an operation becomes *respondable* only once its request has
  arrived there);
* the **response leg** — from the respond step (where the operation
  takes effect, Assumption 1) back to the invoking client.

The kernel owns the model semantics — one action per step, objects
linearize at their respond step, events are published in respond order —
and delegates only the *message substrate* to the transport.  Base
objects therefore remain reachable exclusively through the kernel's
trigger/respond path, whatever the transport (``repro lint`` R004
enforces this for the package).

:class:`InProcTransport` is the direct delivery the kernel hardwired
before the seam existed: requests arrive instantly, responses deliver
inside the respond step.  Seeded runs through it are byte-identical to
the pre-seam kernel (pinned by ``tests/properties/golden_inproc.json``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel
    from repro.sim.objects import LowLevelOp


class Transport:
    """Interface between the kernel and a message substrate.

    Subclasses override the hooks below.  ``active`` tells the kernel
    whether the transport keeps in-flight state that needs pumping each
    step (the in-process transport does not, keeping the hot path free
    of per-step calls); ``remote`` tells the respond step whether the
    operation's effect was computed elsewhere (``result_for``) or must
    be applied to the local base object.
    """

    #: True if the transport holds in-flight messages and needs
    #: :meth:`pump` / :meth:`flush_idle` calls from the run loop.
    active = False

    #: True if results are produced remotely (:meth:`result_for`)
    #: instead of by applying the op to the local base object.
    remote = False

    def __init__(self) -> None:
        self._kernel: "Any" = None

    # -- wiring ------------------------------------------------------------

    def bind(self, kernel: "Kernel") -> None:
        """Attach to a kernel (called from ``Kernel.__init__`` or
        ``Kernel.set_transport``, before any operation is triggered)."""
        self._kernel = kernel

    @property
    def kernel(self) -> "Kernel":
        return self._kernel

    # -- request leg -------------------------------------------------------

    def send_request(self, op: "LowLevelOp") -> None:
        """The request message leaves the client (called by
        ``Kernel.trigger``).  Implementations decide when — and whether —
        the operation becomes respondable via ``kernel.arrive(op_id)``."""
        raise NotImplementedError

    def request_arrived(self, op: "LowLevelOp") -> bool:
        """Oracle query: has the request reached the server?  Must agree
        with the incremental state the transport maintains through
        ``kernel.arrive`` (``Kernel.enabled_steps`` consults this)."""
        raise NotImplementedError

    # -- respond step ------------------------------------------------------

    def result_for(self, op: "LowLevelOp") -> Any:
        """The operation's result, for ``remote`` transports only."""
        raise NotImplementedError

    def send_response(self, op: "LowLevelOp") -> None:
        """The response message leaves the server (called by the kernel
        right after the respond step took effect).  Implementations
        decide when — and whether — the client receives it via
        ``kernel.deliver(op)``."""
        raise NotImplementedError

    # -- failures ----------------------------------------------------------

    def on_server_crash(self, server_id, object_ids) -> None:
        """A server crashed; in-flight requests to it will never arrive.
        ``object_ids`` are the base objects that just crashed."""

    # -- progress (active transports only) ---------------------------------

    def pump(self) -> None:
        """Move messages whose delivery is due at the current kernel
        time (called at the top of every run-loop iteration)."""

    def flush_idle(self) -> bool:
        """No step is enabled but messages may be in flight: force the
        earliest pending delivery.  Return True if progress was made
        (the kernel then re-collects); False ends the run as quiescent.
        This is what makes delivery *eventual*: any message not dropped
        is delivered once the system has nothing else to do."""
        return False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release external resources (sockets, threads).  Idempotent."""

    def describe(self) -> "Dict[str, Any]":
        """A JSON-able self-description (used by reports and the CLI)."""
        return {"transport": type(self).__name__}


class InProcTransport(Transport):
    """Direct in-process delivery — the pre-seam kernel behaviour.

    Requests arrive at the server the instant they are triggered (the
    operation is immediately respondable unless its object is crashed);
    responses are delivered to the client inside the respond step
    itself.  No in-flight state exists, so the kernel's hot path skips
    the pump entirely (``active`` is False).
    """

    active = False
    remote = False

    def send_request(self, op: "LowLevelOp") -> None:
        # Kernel.trigger inlines this leg for the plain type, so only a
        # subclass gets here.  arrive() drops a request to a crashed
        # object: a dead server swallows it.
        self._kernel.arrive(op.op_id)

    def request_arrived(self, op: "LowLevelOp") -> bool:
        return True

    def send_response(self, op: "LowLevelOp") -> None:
        self._kernel.deliver(op)

    def describe(self) -> "Dict[str, Any]":
        return {"transport": "inproc"}
