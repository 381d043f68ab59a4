"""The fate stream as it stood before it was compiled: a test oracle.

A verbatim copy of the straightforward fate code — the splitmix64
finaliser as a function, one decision method per fault, a
:class:`MessageFate` built by keyword — that ``repro.net.faults``
replaced with integer tables and one inlined function.  Persisted lossy
results are keyed by ``FATE_STREAM``, so the stream must not move a bit
while that number stays the same; ``tests/net/test_fate_oracle.py``
holds ``FaultPlan.fate`` and the ``LossyTransport`` send table to this
copy.  Do not optimise it: it is the reference, like
``tests/net/wire_reference.py`` is for the binary codec.

Only the drawing code is copied; validation stays with the production
dataclasses, which :func:`reference_fate` reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

_MASK = (1 << 64) - 1
_K_SEED = 0xD1342543DE82EF95
_K_OP = 0xDA942042E4DD58B5
_K_SERVER = 0xA0761D6478BD642F
_GAMMA = 0x9E3779B97F4A7C15

_TWO_32 = 4294967296.0


def _mix(z: int) -> int:
    """The splitmix64 finaliser: a bijection on 64-bit words in which
    every output bit depends on every input bit."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Drop:
    probability: float = 0.0

    def decide(self, draw: int) -> bool:
        """``draw`` is a uniform 32-bit integer."""
        return draw < self.probability * _TWO_32


@dataclass(frozen=True)
class Duplicate:
    probability: float = 0.0
    offset: int = 5

    def decide(self, draw: int) -> bool:
        """``draw`` is a uniform 32-bit integer."""
        return draw < self.probability * _TWO_32


@dataclass(frozen=True)
class Delay:
    low: int = 0
    high: int = 0

    def sample(self, draw: int) -> int:
        """``draw`` is a uniform 16-bit integer, scaled onto the
        inclusive range."""
        return self.low + ((draw * (self.high - self.low + 1)) >> 16)


@dataclass(frozen=True)
class Reorder:
    probability: float = 0.0
    window: int = 10

    def jitter(self, draw: int) -> int:
        """``draw`` is a uniform 48-bit integer: the high 32 bits decide,
        the low 16 pick the extra ticks in ``[1, window]``."""
        if (draw >> 16) < self.probability * _TWO_32:
            return 1 + (((draw & 0xFFFF) * self.window) >> 16)
        return 0


@dataclass(frozen=True)
class Partition:
    start: int
    heal: "Optional[int]"
    servers: "Tuple[int, ...]"

    def covers(self, time: int, server_index: int) -> bool:
        if server_index not in self.servers:
            return False
        if time < self.start:
            return False
        return self.heal is None or time < self.heal


@dataclass(frozen=True)
class LinkFaults:
    drop: "Drop"
    duplicate: "Duplicate"
    delay: "Delay"
    reorder: "Reorder"


class MessageFate(NamedTuple):
    dropped: bool = False
    delay: int = 0
    duplicated: bool = False
    duplicate_delay: int = 0
    reordered: bool = False
    partitioned: bool = False
    heal_time: "Optional[int]" = None


class ServerFaults(NamedTuple):
    index: int
    link: "LinkFaults"
    windows: "Tuple[Partition, ...]"

    def fate(self, seed: int, op_id: int, leg: int, time: int) -> MessageFate:
        """The fate of one message to or from this server.

        A covering partition wins outright.  Otherwise the message's key
        yields two mixed words with a fixed field per fault — first:
        drop (high 32 bits), duplicate (low 32); second: reorder (high
        48), delay (low 16) — so switching one fault on or off never
        changes what another draws, for this message or any other.
        """
        index, link, windows = self
        for partition in windows:
            if partition.covers(time, index):
                if partition.heal is None:
                    return MessageFate(dropped=True, partitioned=True)
                return MessageFate(partitioned=True, heal_time=partition.heal)
        key = seed * _K_SEED + op_id * _K_OP + index * _K_SERVER + leg
        first = _mix((key + _GAMMA) & _MASK)
        if link.drop.decide(first >> 32):
            return MessageFate(dropped=True)
        second = _mix((key + 2 * _GAMMA) & _MASK)
        jitter = link.reorder.jitter(second >> 16)
        delay = link.delay.sample(second & 0xFFFF) + jitter
        duplicate = link.duplicate
        return MessageFate(
            False,
            delay,
            duplicate.decide(first & 0xFFFFFFFF),
            delay + duplicate.offset,
            jitter > 0,
        )


def reference_fate(plan, seed, op_id, leg, server_index, time) -> tuple:
    """The reference fate of one message under a production
    :class:`repro.net.faults.FaultPlan`, as a plain tuple."""
    link = plan.link(server_index)
    reference = ServerFaults(
        server_index,
        LinkFaults(
            Drop(link.drop.probability),
            Duplicate(link.duplicate.probability, link.duplicate.offset),
            Delay(link.delay.low, link.delay.high),
            Reorder(link.reorder.probability, link.reorder.window),
        ),
        tuple(
            Partition(p.start, p.heal, p.servers) for p in plan.partitions
        ),
    )
    return tuple(reference.fate(seed, op_id, leg, time))
