"""repro.net — the pluggable message substrate.

The paper's model delivers client→base-object invocations and responses
through an abstract asynchronous channel.  This package makes that
channel an explicit, swappable layer behind ``Context.trigger`` and the
kernel's respond path:

* :class:`~repro.net.transport.Transport` — the seam itself (request
  leg, respond step, response leg, progress hooks);
* :class:`~repro.net.transport.InProcTransport` — the direct delivery
  the kernel always had, now stated as a transport (byte-identical
  seeded histories and traces);
* :class:`~repro.net.lossy.LossyTransport` — deterministic seeded
  network-fault injection composed from the fault models in
  :mod:`repro.net.faults` (drop, duplicate, reorder, delay
  distributions, partition/heal schedules);
* :class:`~repro.net.asyncio_transport.AsyncioTransport` — the same
  unmodified protocol state machines over real localhost sockets
  (``repro cluster`` / ``repro serve``);
* :class:`~repro.net.config.TransportConfig` — the picklable
  description that travels inside an
  :class:`~repro.core.emulation.EmulationSpec` and keys the result
  cache.
"""

from repro.net.transport import InProcTransport, Transport
from repro.net.faults import (
    Delay,
    Drop,
    Duplicate,
    FaultPlan,
    LinkFaults,
    Partition,
    Reorder,
    chaos_faults,
    straggler_plan,
)
from repro.net.lossy import LossyTransport
from repro.net.config import TransportConfig
from repro.net.wire import BinaryWireCodec

__all__ = [
    "Transport",
    "InProcTransport",
    "LossyTransport",
    "TransportConfig",
    "BinaryWireCodec",
    "FaultPlan",
    "LinkFaults",
    "Drop",
    "Duplicate",
    "Delay",
    "Reorder",
    "Partition",
    "chaos_faults",
    "straggler_plan",
]
