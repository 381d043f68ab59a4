"""Fault models: validation, determinism, composition."""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.errors import InvalidConfig
from repro.net.config import TransportConfig
from repro.net.faults import (
    FATE_STREAM,
    REQUEST,
    RESPONSE,
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


class TestValidation:
    def test_probabilities_must_be_sub_one(self):
        with pytest.raises(ValueError):
            Drop(1.0)
        with pytest.raises(ValueError):
            Duplicate(-0.1)
        with pytest.raises(ValueError):
            Reorder(1.5)

    def test_delay_bounds(self):
        with pytest.raises(ValueError):
            Delay(5, 2)
        with pytest.raises(ValueError):
            Delay(-1, 2)

    def test_magnitudes_must_fit_their_16_bit_field(self):
        Delay(10, 10 + 2**16 - 1)  # ok: 2**16 values
        with pytest.raises(InvalidConfig):
            Delay(10, 10 + 2**16)
        Reorder(0.5, window=2**16)  # ok
        with pytest.raises(InvalidConfig):
            Reorder(0.5, window=2**16 + 1)

    def test_partition_must_heal_after_start(self):
        with pytest.raises(ValueError):
            Partition(start=10, heal=10, servers=(0,))
        Partition(start=10, heal=11, servers=(0,))  # ok

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Drop(1.0), "drop probability"),
            (lambda: Duplicate(-0.1), "duplicate probability"),
            (lambda: Duplicate(0.1, offset=0), "duplicate offset"),
            (lambda: Delay(5, 2), "low <= high"),
            (lambda: Reorder(1.5), "reorder probability"),
            (lambda: Reorder(0.5, window=0), "reorder window must be >= 1"),
            (
                lambda: Partition(start=-1, heal=None, servers=(0,)),
                "non-negative",
            ),
            (
                lambda: Partition(start=10, heal=10, servers=(0,)),
                "heal strictly after",
            ),
            (lambda: TransportConfig(kind="pigeon"), "unknown transport"),
            (
                lambda: TransportConfig(kind="inproc", plan=FaultPlan()),
                "fault plan",
            ),
            (
                lambda: TransportConfig(kind="lossy", addresses=("h:1",)),
                "addresses",
            ),
        ],
    )
    def test_bad_argument_raises_invalid_config(self, build, message):
        with pytest.raises(InvalidConfig, match=message):
            build()

    def test_partition_servers_are_normalized(self):
        partition = Partition(start=0, heal=None, servers=(2, 0, 2))
        assert partition.servers == (0, 2)


class TestPartitionWindow:
    def test_covers_window(self):
        partition = Partition(start=10, heal=20, servers=(1,))
        assert not partition.covers(9, 1)
        assert partition.covers(10, 1)
        assert partition.covers(19, 1)
        assert not partition.covers(20, 1)
        assert not partition.covers(15, 0)

    def test_unhealed_partition_covers_forever(self):
        partition = Partition(start=5, heal=None, servers=(0,))
        assert partition.covers(1_000_000, 0)


class TestFateDeterminism:
    PLAN = chaos_faults(drop=0.2, duplicate=0.2, reorder=0.5, max_delay=40)

    def test_same_inputs_same_fate(self):
        for op_value in range(50):
            first = self.PLAN.fate(7, op_value, REQUEST, 0, time=3)
            second = self.PLAN.fate(7, op_value, REQUEST, 0, time=3)
            assert first == second

    def test_legs_are_independent_streams(self):
        fates = {
            (leg, op_value): self.PLAN.fate(7, op_value, leg, 0, time=0)
            for leg in (REQUEST, RESPONSE)
            for op_value in range(200)
        }
        request_fates = [fates[(REQUEST, i)] for i in range(200)]
        response_fates = [fates[(RESPONSE, i)] for i in range(200)]
        assert request_fates != response_fates

    def test_seed_changes_fates(self):
        fates_a = [self.PLAN.fate(1, i, REQUEST, 0, 0) for i in range(200)]
        fates_b = [self.PLAN.fate(2, i, REQUEST, 0, 0) for i in range(200)]
        assert fates_a != fates_b

    def test_partition_overrides_link_faults(self):
        plan = FaultPlan(
            default=LinkFaults(drop=Drop(0.5)),
            partitions=(Partition(start=0, heal=30, servers=(0,)),),
        )
        fate = plan.fate(0, 1, REQUEST, 0, time=10)
        assert fate.partitioned and not fate.dropped
        assert fate.heal_time == 30

    def test_unhealed_partition_drops(self):
        plan = FaultPlan(
            partitions=(Partition(start=0, heal=None, servers=(0,)),)
        )
        fate = plan.fate(0, 1, REQUEST, 0, time=5)
        assert fate.dropped and fate.partitioned


#: the stream, pinned: ((seed, op, leg, server), fate) under
#: ``chaos_faults(0.2, 0.2, 0.5, 40)`` at time 0.  Pure int arithmetic,
#: so these hold on every interpreter; a change here is a new stream and
#: must come with a ``FATE_STREAM`` bump (persisted lossy results are
#: keyed by it).
PINNED_STREAM = 2
PINNED_FATES = (
    ((0, 0, 0, 0), (False, 29, False, 34, True, False, None)),
    ((0, 0, 1, 0), (False, 37, False, 42, False, False, None)),
    ((0, 1, 0, 0), (False, 45, False, 50, True, False, None)),
    ((0, 1, 0, 1), (False, 15, False, 20, False, False, None)),
    ((1, 0, 0, 0), (False, 14, False, 19, False, False, None)),
    ((7, 3, 0, 2), (True, 0, False, 0, False, False, None)),
    ((7, 3, 1, 2), (False, 38, True, 43, False, False, None)),
    ((7, 4, 0, 2), (False, 11, True, 16, True, False, None)),
    ((7, 1000, 0, 0), (False, 49, False, 54, True, False, None)),
    ((7, 1000, 1, 3), (False, 53, False, 58, True, False, None)),
    ((42, 1048576, 0, 1), (False, 22, False, 27, False, False, None)),
    ((42, 1048577, 0, 1), (True, 0, False, 0, False, False, None)),
    ((2147483648, 5, 1, 4), (False, 15, False, 20, False, False, None)),
    ((9223372036854775817, 5, 1, 4), (True, 0, False, 0, False, False, None)),
    ((-3, 17, 0, 0), (True, 0, False, 0, False, False, None)),
    ((123456789, 987654321, 1, 6), (True, 0, False, 0, False, False, None)),
)


def link(drop=0.0, duplicate=0.0, delay=(0, 0), reorder=0.0, window=10):
    return LinkFaults(
        drop=Drop(drop),
        duplicate=Duplicate(duplicate),
        delay=Delay(*delay),
        reorder=Reorder(reorder, window=window),
    )


class TestFateStream:
    """The counter-based stream itself: pinned bits, honest
    distributions, one fixed slot per fault."""

    KEYS = 24_000

    def fates(self, faults, seed=5, leg=REQUEST, server=0, keys=KEYS):
        plan = FaultPlan(default=faults)
        return [plan.fate(seed, op, leg, server, 0) for op in range(keys)]

    def test_pinned_fates(self):
        assert FATE_STREAM == PINNED_STREAM
        plan = chaos_faults(drop=0.2, duplicate=0.2, reorder=0.5, max_delay=40)
        for (seed, op, leg, server), expected in PINNED_FATES:
            assert tuple(plan.fate(seed, op, leg, server, 0)) == expected

    def test_decision_rates_match_their_probabilities(self):
        fates = self.fates(link(drop=0.2, duplicate=0.05, reorder=0.3))
        alive = [fate for fate in fates if not fate.dropped]
        assert abs(1 - len(alive) / self.KEYS - 0.2) < 0.01
        duplicated = sum(fate.duplicated for fate in alive)
        reordered = sum(fate.reordered for fate in alive)
        assert abs(duplicated / len(alive) - 0.05) < 0.01
        assert abs(reordered / len(alive) - 0.3) < 0.01

    def test_delay_covers_its_inclusive_range_evenly(self):
        fates = self.fates(link(delay=(3, 9)))
        counts = Counter(fate.delay for fate in fates)
        assert sorted(counts) == list(range(3, 10))
        for count in counts.values():
            assert abs(count / self.KEYS - 1 / 7) < 0.01

    def test_jitter_stays_in_its_window(self):
        fates = self.fates(link(reorder=0.6, window=6))
        jitters = Counter(fate.delay for fate in fates if fate.reordered)
        assert sorted(jitters) == [1, 2, 3, 4, 5, 6]
        assert all(fate.delay == 0 for fate in fates if not fate.reordered)
        total = sum(jitters.values())
        for count in jitters.values():
            assert abs(count / total - 1 / 6) < 0.015

    def test_probabilities_keep_32_bit_resolution(self):
        tiny = 2.0 ** -32
        for fault in (Drop(tiny), Duplicate(tiny)):
            assert fault.decide(0) and not fault.decide(1)
        assert Reorder(tiny, window=1).jitter(0xFFFF) == 1
        assert Reorder(tiny, window=1).jitter(1 << 16) == 0
        almost = 1 - tiny
        assert Drop(almost).decide(2**32 - 2)
        assert not Drop(almost).decide(2**32 - 1)
        assert not Drop(0.0).decide(0)

    @pytest.mark.parametrize("toggled", ["drop", "duplicate"])
    def test_each_fault_draws_from_its_own_slot(self, toggled):
        # switching Drop or Duplicate on must not move the delay or the
        # jitter of any message that still gets through.
        base = dict(delay=(0, 30), reorder=0.4, window=12)
        without = self.fates(link(**base), keys=4000)
        with_it = self.fates(link(**base, **{toggled: 0.3}), keys=4000)
        survivors = 0
        for before, after in zip(without, with_it):
            if after.dropped:
                continue
            survivors += 1
            assert (after.delay, after.reordered) == (
                before.delay,
                before.reordered,
            )
        assert 0 < survivors <= 4000
        assert with_it != without  # the toggled fault did fire

    def test_legs_servers_and_seeds_are_separate_streams(self):
        faults = link(drop=0.2, duplicate=0.2, delay=(0, 40), reorder=0.5)
        streams = {
            (seed, leg, server): tuple(
                self.fates(faults, seed, leg, server, keys=64)
            )
            for seed in (0, 1, 2**40)
            for leg in (REQUEST, RESPONSE)
            for server in (0, 1, 5)
        }
        assert len(set(streams.values())) == len(streams) == 18


#: child program for the cross-process test: same plan, same fate keys,
#: printed as JSON.  Runs under a pinned, different hash salt — if fate()
#: ever hashes a str (leg names, say), the salted hash diverges and the
#: fates stop matching the parent's.
_CHILD_PROGRAM = """
import dataclasses, json
from repro.net.faults import REQUEST, RESPONSE, chaos_faults

plan = chaos_faults(drop=0.2, duplicate=0.2, reorder=0.5, max_delay=40)
fates = [
    tuple(plan.fate(7, op_value, leg, server, 0))
    for op_value in range(100)
    for leg in (REQUEST, RESPONSE)
    for server in (0, 1)
]
print(json.dumps(fates))
"""


class TestCrossProcessDeterminism:
    """Fate streams must replay in *other* processes, not just this one:
    the CI smoke job compares history digests from separate
    interpreters."""

    def test_leg_codes_are_ints(self):
        # the leg is folded arithmetically into the stream key.
        assert isinstance(REQUEST, int)
        assert isinstance(RESPONSE, int)
        assert REQUEST != RESPONSE

    def test_fates_survive_a_different_hash_salt(self):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "424242"
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        child = json.loads(
            subprocess.run(
                [sys.executable, "-c", _CHILD_PROGRAM],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        plan = chaos_faults(drop=0.2, duplicate=0.2, reorder=0.5, max_delay=40)
        parent = [
            tuple(plan.fate(7, op_value, leg, server, 0))
            for op_value in range(100)
            for leg in (REQUEST, RESPONSE)
            for server in (0, 1)
        ]
        assert json.loads(json.dumps(parent)) == child


class TestPlans:
    def test_per_server_override(self):
        slow = LinkFaults(delay=Delay(50, 60))
        plan = FaultPlan(per_server=((2, slow),))
        assert plan.link(2) is slow
        assert plan.link(0) == LinkFaults()

    def test_straggler_plan_slows_only_the_stragglers(self):
        plan = straggler_plan([1], slow_delay=(30, 40), base_delay=(0, 0))
        fast = plan.fate(0, 1, REQUEST, 0, time=0)
        slow = plan.fate(0, 1, REQUEST, 1, time=0)
        assert fast.delay == 0
        assert 30 <= slow.delay <= 40

    def test_chaos_faults_compose_everything(self):
        plan = chaos_faults(drop=0.3, duplicate=0.3, reorder=0.5, max_delay=20)
        fates = [plan.fate(11, i, REQUEST, 0, 0) for i in range(300)]
        assert any(f.dropped for f in fates)
        assert any(f.duplicated for f in fates)
        assert any(f.reordered for f in fates)
        assert any(f.delay > 0 for f in fates)

    def test_plans_are_hashable_and_picklable(self):
        import pickle

        plan = chaos_faults()
        assert hash(plan) == hash(pickle.loads(pickle.dumps(plan)))
        assert pickle.loads(pickle.dumps(plan)) == plan
