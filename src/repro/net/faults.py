"""Composable, deterministic network-fault models.

Every fault decision is a pure function of ``(plan, seed, message)`` —
no hidden RNG state, no wall clock, no salted hashing.  Each message
owns a counter-based stream: its ``(seed, op id, leg, server)`` key is
folded into one 64-bit word and passed through the splitmix64 finaliser
(:func:`_mix`) at most twice, and every fault reads its own fixed
bit-field of those two words.  The arithmetic is plain ``int``, so two
runs of the same plan with the same seed see identical drops,
duplicates, delays and reorderings, whatever the scheduler does in
between, whichever process or interpreter version they run in.
:data:`FATE_STREAM` names the stream; persisted lossy results are keyed
by it (:meth:`~repro.net.config.TransportConfig.cache_payload`).

These faults are **out-of-model stressors** with respect to the paper:
the space bounds assume reliable (if asynchronous) channels, so under a
:class:`FaultPlan` only *safety* is asserted; liveness holds only under
eventual delivery to ``n - f`` servers, which
:meth:`~repro.net.lossy.LossyTransport.flush_idle` realizes
(docs/MODEL.md, "Transports and the paper's assumptions").

The message-level concerns previously expressed as scheduler weights
(:mod:`repro.sim.latency`) and veto storms (:mod:`repro.sim.chaos`)
have direct fault-plan analogues here: :func:`straggler_plan` gives a
slow server long request delays instead of a small scheduling weight,
and :func:`chaos_faults` turns the veto-window idea into delivery
jitter plus reordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

from repro.errors import InvalidConfig

#: message-leg codes, folded into the per-message stream key.
REQUEST = 0
RESPONSE = 1

#: version of the fate stream below.  Bump it whenever the same
#: ``(plan, seed, message)`` would draw a different fate, so results
#: persisted under the old stream are not served as cache hits.
FATE_STREAM = 2

_MASK = (1 << 64) - 1
#: odd 64-bit multipliers that spread seed / op id / server over the key
#: word, and the splitmix64 increment that steps it to the second draw.
_K_SEED = 0xD1342543DE82EF95
_K_OP = 0xDA942042E4DD58B5
_K_SERVER = 0xA0761D6478BD642F
_GAMMA = 0x9E3779B97F4A7C15

#: bounds of the 32-bit decision fields and 16-bit magnitude fields.
_TWO_32 = 4294967296.0
_TWO_16 = 1 << 16


def _mix(z: int) -> int:
    """The splitmix64 finaliser: a bijection on 64-bit words in which
    every output bit depends on every input bit."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Drop:
    """Lose the message with the given probability."""

    probability: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.probability < 1.0:
            raise InvalidConfig("drop probability must be in [0, 1)")

    def decide(self, draw: int) -> bool:
        """``draw`` is a uniform 32-bit integer."""
        return draw < self.probability * _TWO_32


@dataclass(frozen=True)
class Duplicate:
    """Deliver a second copy of the message, ``offset`` ticks later."""

    probability: float = 0.0
    offset: int = 5

    def __post_init__(self):
        if not 0.0 <= self.probability < 1.0:
            raise InvalidConfig("duplicate probability must be in [0, 1)")
        if self.offset < 1:
            raise InvalidConfig("duplicate offset must be >= 1")

    def decide(self, draw: int) -> bool:
        """``draw`` is a uniform 32-bit integer."""
        return draw < self.probability * _TWO_32


@dataclass(frozen=True)
class Delay:
    """Uniform delivery-latency distribution, in kernel ticks."""

    low: int = 0
    high: int = 0

    def __post_init__(self):
        if self.low < 0 or self.high < self.low:
            raise InvalidConfig("need 0 <= low <= high")
        if self.high - self.low >= _TWO_16:
            raise InvalidConfig("delay range must span < 2**16 ticks")

    def sample(self, draw: int) -> int:
        """``draw`` is a uniform 16-bit integer, scaled onto the
        inclusive range."""
        return self.low + ((draw * (self.high - self.low + 1)) >> 16)


@dataclass(frozen=True)
class Reorder:
    """Perturb arrival order: with the given probability, push the
    message up to ``window`` extra ticks past its sampled delay, letting
    later messages overtake it."""

    probability: float = 0.0
    window: int = 10

    def __post_init__(self):
        if not 0.0 <= self.probability < 1.0:
            raise InvalidConfig("reorder probability must be in [0, 1)")
        if self.window < 1:
            raise InvalidConfig("reorder window must be >= 1")
        if self.window > _TWO_16:
            raise InvalidConfig("reorder window must be <= 2**16 ticks")

    def jitter(self, draw: int) -> int:
        """``draw`` is a uniform 48-bit integer: the high 32 bits decide,
        the low 16 pick the extra ticks in ``[1, window]``."""
        if (draw >> 16) < self.probability * _TWO_32:
            return 1 + (((draw & 0xFFFF) * self.window) >> 16)
        return 0


@dataclass(frozen=True)
class Partition:
    """Cut the given servers off between kernel times ``start`` and
    ``heal``.  ``heal=None`` means the partition never heals: messages
    to/from those servers sent during it are lost outright."""

    start: int
    heal: "Optional[int]"
    servers: "Tuple[int, ...]"

    def __post_init__(self):
        if self.start < 0:
            raise InvalidConfig("partition start must be non-negative")
        if self.heal is not None and self.heal <= self.start:
            raise InvalidConfig("partition must heal strictly after it starts")
        object.__setattr__(self, "servers", tuple(sorted(set(self.servers))))

    def covers(self, time: int, server_index: int) -> bool:
        if server_index not in self.servers:
            return False
        if time < self.start:
            return False
        return self.heal is None or time < self.heal


@dataclass(frozen=True)
class LinkFaults:
    """The fault profile of one client↔server link (both legs)."""

    drop: "Drop" = field(default_factory=Drop)
    duplicate: "Duplicate" = field(default_factory=Duplicate)
    delay: "Delay" = field(default_factory=Delay)
    reorder: "Reorder" = field(default_factory=Reorder)

    @property
    def is_neutral(self) -> bool:
        """True when no rule on this link can ever fire, so every
        message's fate is the trivial :class:`MessageFate` whatever its
        draws.  Not drawing them is observationally safe *because* the
        streams are stateless: each message's words are keyed by its own
        ``(seed, op id, leg, server)``, so skipping one message can
        never shift another's.
        """
        return (
            self.drop.probability == 0.0
            and self.duplicate.probability == 0.0
            and self.delay.high == 0
            and self.reorder.probability == 0.0
        )


class MessageFate(NamedTuple):
    """Everything that will happen to one message, decided at send time."""

    dropped: bool = False
    delay: int = 0
    duplicated: bool = False
    duplicate_delay: int = 0
    reordered: bool = False
    partitioned: bool = False
    heal_time: "Optional[int]" = None


class ServerFaults(NamedTuple):
    """Everything a plan holds for one server: its link profile and the
    partition windows to test (any superset of those listing it)."""

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


@dataclass(frozen=True)
class FaultPlan:
    """A full network weather report: a default link profile, per-server
    overrides, and a partition schedule.

    ``per_server`` maps server *index* to a :class:`LinkFaults` override
    (stored as a sorted tuple of pairs so the plan stays hashable and
    picklable for :class:`~repro.net.config.TransportConfig`).
    """

    default: "LinkFaults" = field(default_factory=LinkFaults)
    per_server: "Tuple[Tuple[int, LinkFaults], ...]" = ()
    partitions: "Tuple[Partition, ...]" = ()

    def __post_init__(self):
        object.__setattr__(self, "per_server", tuple(sorted(self.per_server)))
        object.__setattr__(
            self,
            "partitions",
            tuple(sorted(self.partitions, key=lambda p: (p.start, p.servers))),
        )

    def link(self, server_index: int) -> "LinkFaults":
        for index, faults in self.per_server:
            if index == server_index:
                return faults
        return self.default

    def compiled(self, server_index: int) -> "Optional[ServerFaults]":
        """The plan as one server sees it — its link profile and only
        the partitions that list it — or ``None`` when no fault can ever
        touch that server.  Time-independent, so callers may keep the
        answer for the lifetime of the plan."""
        link = self.link(server_index)
        listing = [p for p in self.partitions if server_index in p.servers]
        if link.is_neutral and not listing:
            return None
        return ServerFaults(server_index, link, tuple(listing))

    def fate(
        self, seed: int, op_id: int, leg: int, server_index: int, time: int
    ) -> "MessageFate":
        """Decide, deterministically, what happens to one message: a
        pure function of the arguments, identical in every process.  The
        two legs of an operation, and its copies to different servers,
        get independent streams (see :meth:`ServerFaults.fate`)."""
        faults = ServerFaults(
            server_index, self.link(server_index), self.partitions
        )
        return faults.fate(seed, op_id, leg, time)


def straggler_plan(
    slow_servers,
    slow_delay: "Tuple[int, int]" = (20, 60),
    base_delay: "Tuple[int, int]" = (0, 2),
) -> "FaultPlan":
    """A fleet with slow links to some servers — the network-level
    analogue of :func:`repro.sim.latency.straggler_fleet` (which skews
    the scheduler instead of the channel).

    ``slow_servers`` is an iterable of server indices.
    """
    slow = LinkFaults(delay=Delay(*slow_delay))
    return FaultPlan(
        default=LinkFaults(delay=Delay(*base_delay)),
        per_server=tuple(
            (index, slow) for index in sorted(set(slow_servers))
        ),
    )


def chaos_faults(
    drop: float = 0.1,
    duplicate: float = 0.05,
    reorder: float = 0.3,
    max_delay: int = 30,
) -> "FaultPlan":
    """An everything-at-once weather front — the channel-level analogue
    of :class:`repro.sim.chaos.ChaosEnvironment` (which vetoes responds
    instead of perturbing messages)."""
    return FaultPlan(
        default=LinkFaults(
            drop=Drop(drop),
            duplicate=Duplicate(duplicate),
            delay=Delay(0, max_delay),
            reorder=Reorder(reorder, window=max(1, max_delay // 2)),
        )
    )
