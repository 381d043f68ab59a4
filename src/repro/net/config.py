"""Picklable transport descriptions.

A live :class:`~repro.net.transport.Transport` holds queues, sockets or
threads and cannot cross a process boundary; a :class:`TransportConfig`
can — it travels inside an :class:`~repro.core.emulation.EmulationSpec`
to the experiment engine's worker processes, and its canonical payload
is folded into the result-cache cell key so sweeps on different
transports can never serve each other's cached results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import InvalidConfig
from repro.net.faults import FATE_STREAM, FaultPlan

#: the transport kinds a config can describe.
KINDS = ("inproc", "lossy", "asyncio")


@dataclass(frozen=True)
class TransportConfig:
    """A frozen, hashable, picklable recipe for one transport.

    ``kind`` selects the implementation; ``seed`` and ``plan`` only
    apply to ``"lossy"``; ``addresses`` only applies to ``"asyncio"``
    (empty addresses mean the transport spawns its own localhost
    servers, as ``repro cluster`` does; non-empty lists one
    ``host:port`` per server index for ``repro serve``-hosted
    processes).
    """

    kind: str = "inproc"
    seed: int = 0
    plan: "Optional[FaultPlan]" = None
    addresses: "Tuple[str, ...]" = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidConfig(
                f"unknown transport kind {self.kind!r}; known: {KINDS}"
            )
        if self.plan is not None and self.kind != "lossy":
            raise InvalidConfig("a fault plan only applies to the lossy kind")
        if self.addresses and self.kind != "asyncio":
            raise InvalidConfig("addresses only apply to the asyncio kind")
        if self.kind == "lossy" and self.plan is None:
            # Normalize: a bare lossy config means "no faults", which is
            # exactly FaultPlan().  Filling it in here keeps directly
            # constructed and .lossy()-built configs equal, so they hash
            # to one result-cache cell instead of two.
            object.__setattr__(self, "plan", FaultPlan())
        object.__setattr__(self, "addresses", tuple(self.addresses))

    # -- constructors ------------------------------------------------------

    @classmethod
    def inproc(cls) -> "TransportConfig":
        return cls(kind="inproc")

    @classmethod
    def lossy(
        cls, plan: "Optional[FaultPlan]" = None, seed: int = 0
    ) -> "TransportConfig":
        return cls(kind="lossy", seed=seed, plan=plan)

    @classmethod
    def asyncio(cls, addresses: "Tuple[str, ...]" = ()) -> "TransportConfig":
        return cls(kind="asyncio", addresses=tuple(addresses))

    # -- realization -------------------------------------------------------

    def build(self):
        """Instantiate the described transport (unbound)."""
        if self.kind == "inproc":
            from repro.net.transport import InProcTransport

            return InProcTransport()
        if self.kind == "lossy":
            from repro.net.lossy import LossyTransport

            return LossyTransport(plan=self.plan, seed=self.seed)
        # "asyncio": imported lazily — the module is R002-exempt (real
        # sockets, wall-clock deadlines) and only loads when asked for.
        from repro.net.asyncio_transport import AsyncioTransport

        return AsyncioTransport(addresses=self.addresses)

    # -- cache keying ------------------------------------------------------

    def cache_payload(self) -> "Dict[str, Any]":
        """A canonical JSON-able form for result-cache cell keys.

        ``dataclasses.asdict`` recurses into the fault plan's frozen
        dataclasses in field order, so equal configs always produce the
        same payload and any change to any fault parameter changes it.
        A lossy result also depends on the stream the fates are drawn
        from, so that kind alone carries its version.
        """
        payload = asdict(self)
        if self.kind == "lossy":
            payload["fate_stream"] = FATE_STREAM
        return payload
