"""Composable, deterministic network-fault models.

Every fault decision is a pure function of ``(plan, seed, message)`` —
no hidden RNG state, no wall clock, no salted hashing.  Each message
owns a counter-based stream: its ``(seed, op id, leg, server)`` key is
folded into one 64-bit word and passed through the splitmix64 finaliser
at most twice, and every fault reads its own fixed bit-field of those
two words.  The arithmetic is plain ``int``, so two runs of the same
plan with the same seed see identical drops, duplicates, delays and
reorderings, whatever the scheduler does in between, whichever process
or interpreter version they run in.  :data:`FATE_STREAM` names the
stream; persisted lossy results are keyed by it
(:meth:`~repro.net.config.TransportConfig.cache_payload`).

The fault dataclasses are the plan's readable form.  A plan is drawn
from only after :meth:`FaultPlan.compiled` has resolved it, per server
and transport seed, into a :class:`ServerFaults` tuple of plain
integers — probabilities as 32-bit thresholds, the delay range as a low
and a span, partitions as ``(start, heal)`` windows, the seed and
server folded into the key's base word.  :func:`draw_fate` is the one
function that turns such a tuple and a message into its
:class:`MessageFate`; :meth:`FaultPlan.fate` and
:class:`~repro.net.lossy.LossyTransport` both call it.

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

import math
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
_GAMMA2 = 2 * _GAMMA

#: bounds of the 32-bit decision fields and 16-bit magnitude fields.
_TWO_32 = 4294967296.0
_TWO_16 = 1 << 16


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


#: the fates that draw nothing: a partition that never heals, and a drop.
_LOST = MessageFate(dropped=True, partitioned=True)
_DROPPED = MessageFate(dropped=True)
_new = tuple.__new__


class ServerFaults(NamedTuple):
    """One server's share of a plan, resolved for one transport seed into
    the plain integers :func:`draw_fate` reads.

    ``link`` is the profile the integers came from.  ``windows`` are the
    ``(start, heal)`` pairs of the partitions listing the server, in plan
    order; ``base`` is the seed's and the server's part of every message
    key, ``(seed * _K_SEED + server_index * _K_SERVER) & _MASK``.  A
    probability ``p`` becomes the 32-bit threshold ``ceil(p * 2**32)``:
    an integer draw is below one exactly when it is below the other.
    ``span`` is the number of delay values, ``high - low + 1``.
    """

    link: "LinkFaults"
    windows: "Tuple[Tuple[int, Optional[int]], ...]"
    base: int
    drop: int
    duplicate: int
    offset: int
    low: int
    span: int
    reorder: int
    window: int


def _threshold(probability: float) -> int:
    return math.ceil(probability * _TWO_32)


def draw_fate(
    faults: "ServerFaults", op_id: int, leg: int, time: int
) -> "MessageFate":
    """The fate of one message to or from the server ``faults`` describes:
    the one fate function, behind both :meth:`FaultPlan.fate` and
    :class:`~repro.net.lossy.LossyTransport`.

    A covering partition wins outright.  Otherwise the message's key
    ``base + op_id * _K_OP + leg`` is stepped once or twice by
    ``_GAMMA`` and each step passed through the splitmix64 finaliser (a
    bijection on 64-bit words in which every output bit depends on every
    input bit; inlined twice below).  Every fault reads its own fixed
    bit-field — first word: drop (high 32 bits), duplicate (low 32);
    second word: reorder decision (high 32), reorder ticks in ``[1,
    window]`` (next 16), delay (low 16) — so switching one fault on or
    off never changes what another draws, for this message or any other.
    """
    _, windows, base, drop, duplicate, offset, low, span, reorder, window = (
        faults
    )
    for start, heal in windows:
        if start <= time and (heal is None or time < heal):
            if heal is None:
                return _LOST
            return _new(MessageFate, (False, 0, False, 0, False, True, heal))
    key = base + op_id * _K_OP + leg
    z = (key + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    first = z ^ (z >> 31)
    if first >> 32 < drop:
        return _DROPPED
    z = (key + _GAMMA2) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    second = z ^ (z >> 31)
    delay = low + (((second & 0xFFFF) * span) >> 16)
    reordered = second >> 32 < reorder
    if reordered:
        delay += 1 + ((((second >> 16) & 0xFFFF) * window) >> 16)
    return _new(
        MessageFate,
        (
            False,
            delay,
            first & 0xFFFFFFFF < duplicate,
            delay + offset,
            reordered,
            False,
            None,
        ),
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

    def _resolve(self, server_index: int, seed: int) -> "ServerFaults":
        link = self.link(server_index)
        delay = link.delay
        return ServerFaults(
            link,
            tuple(
                (p.start, p.heal)
                for p in self.partitions
                if server_index in p.servers
            ),
            (seed * _K_SEED + server_index * _K_SERVER) & _MASK,
            _threshold(link.drop.probability),
            _threshold(link.duplicate.probability),
            link.duplicate.offset,
            delay.low,
            delay.high - delay.low + 1,
            _threshold(link.reorder.probability),
            link.reorder.window,
        )

    def compiled(
        self, server_index: int, seed: int
    ) -> "Optional[ServerFaults]":
        """The plan as one server sees it under one transport seed — its
        :class:`ServerFaults`, whose ``windows`` hold only the partitions
        that list it — or ``None`` when no fault can ever touch that
        server.  Time-independent, so callers may keep the answer for the
        lifetime of the plan."""
        faults = self._resolve(server_index, seed)
        if faults.link.is_neutral and not faults.windows:
            return None
        return faults

    def fate(
        self, seed: int, op_id: int, leg: int, server_index: int, time: int
    ) -> "MessageFate":
        """Decide, deterministically, what happens to one message: a
        pure function of the arguments, identical in every process.  The
        two legs of an operation, and its copies to different servers,
        get independent streams (see :func:`draw_fate`)."""
        return draw_fate(self._resolve(server_index, seed), op_id, leg, time)


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
