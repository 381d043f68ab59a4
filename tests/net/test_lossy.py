"""LossyTransport: safety under network faults, liveness under fairness.

The scenarios here are the executable form of the distinction in
docs/MODEL.md: injected network faults are out-of-model stressors, so
the safety checkers must pass under *every* seeded fault plan, while
liveness (runs completing) is asserted only for plans that preserve
eventual delivery — no drops, partitions that heal.
"""

import json

import pytest

from repro.consistency.linearizability import is_linearizable
from repro.consistency.mw_regularity import check_mw_regular_weak
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.specs import MaxRegisterSpec, RegisterSpec
from repro.consistency.ws import check_ws_regular
from repro.core.emulation import EmulationSpec
from repro.net import (
    Delay,
    Duplicate,
    FaultPlan,
    LinkFaults,
    Partition,
    Reorder,
    TransportConfig,
    chaos_faults,
)

#: algorithm -> (spec params, write op name, value kind, safety check key)
SCENARIOS = {
    "ws-register": (dict(k=2, n=5, f=2), "write", "read", "str", "ws"),
    "abd": (dict(n=3, f=1), "write", "read", "str", "atomic"),
    "cas-abd": (dict(n=3, f=1), "write", "read", "str", "atomic"),
    "replicated-maxreg": (dict(k=2, n=3, f=1), "write", "read", "str", "ws"),
    "collect-maxreg": (dict(k=2), "write_max", "read_max", "int", "maxreg"),
    "ft-maxreg": (dict(n=3, f=1), "write_max", "read_max", "int", "maxreg"),
    "single-cas": (dict(), "write_max", "read_max", "int", "maxreg"),
}

#: perturbs delivery heavily but preserves eventual delivery: no drops,
#: no partitions — liveness must hold under this plan.
EVENTUAL_DELIVERY = FaultPlan(
    default=LinkFaults(
        duplicate=Duplicate(0.15, offset=4),
        delay=Delay(0, 15),
        reorder=Reorder(0.4, window=8),
    )
)


def assert_safe(algorithm, emulation):
    check = SCENARIOS[algorithm][4]
    history = emulation.history
    if check == "ws":
        assert check_ws_regular(history, cross_check=True) == []
        assert check_mw_regular_weak(history) == []
    elif check == "atomic":
        if history.pending_ops:
            assert is_linearizable(history.all_ops(), RegisterSpec(None))
        else:
            assert is_register_history_atomic(history)
    else:
        assert is_linearizable(history.all_ops(), MaxRegisterSpec(0))


def run_lossy(algorithm, plan, seed, rounds=3, require_live=True):
    """Drive a write-sequential workload over a lossy transport."""
    params, write_op, read_op, value_kind, _ = SCENARIOS[algorithm]
    spec = EmulationSpec.make(
        algorithm,
        seed=seed,
        transport=TransportConfig.lossy(plan, seed=seed + 1),
        **params,
    )
    emulation = spec.build()
    writer = emulation.add_writer(0)
    readers = [emulation.add_reader() for _ in range(2)]
    for round_index in range(rounds):
        value = (
            round_index + 1
            if value_kind == "int"
            else f"v{seed}-{round_index}"
        )
        writer.enqueue(write_op, value)
        for reader in readers:
            reader.enqueue(read_op)
        result = emulation.system.run_to_quiescence(max_steps=200_000)
        if require_live:
            assert result.satisfied, (
                f"{algorithm} seed={seed} round {round_index} did not"
                f" complete under an eventual-delivery plan: {result}"
            )
    return emulation


class TestEventualDeliveryLiveness:
    """No drops + healing partitions => every run completes, safely."""

    @pytest.mark.parametrize("algorithm", sorted(SCENARIOS))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_all_algorithms_live_and_safe(self, algorithm, seed):
        emulation = run_lossy(algorithm, EVENTUAL_DELIVERY, seed)
        assert_safe(algorithm, emulation)
        stats = emulation.kernel.transport.stats()
        assert stats["requests_sent"] > 0
        assert stats["dropped_requests"] == 0
        assert stats["dropped_responses"] == 0
        # every op completed, so any leftover in-flight messages can only
        # be redundant duplicate copies — never an undelivered original.
        assert stats["in_flight"] <= (
            stats["duplicate_requests"] + stats["duplicate_responses"]
        )

    def test_the_plan_actually_perturbs(self):
        totals = {"duplicate_requests": 0, "duplicate_responses": 0,
                  "reordered": 0, "flushes": 0}
        for seed in range(4):
            emulation = run_lossy("abd", EVENTUAL_DELIVERY, seed)
            for key in totals:
                totals[key] += emulation.kernel.transport.counters[key]
        assert totals["reordered"] > 0
        assert totals["duplicate_requests"] + totals["duplicate_responses"] > 0
        assert totals["flushes"] > 0  # idle flushes realized eventual delivery


class TestPartitionHeal:
    PLAN = FaultPlan(
        default=LinkFaults(delay=Delay(0, 2)),
        partitions=(Partition(start=5, heal=60, servers=(0,)),),
    )

    @pytest.mark.parametrize("algorithm", ["abd", "ws-register"])
    def test_partition_heals_and_run_completes(self, algorithm):
        emulation = run_lossy(algorithm, self.PLAN, seed=3)
        assert_safe(algorithm, emulation)
        stats = emulation.kernel.transport.stats()
        assert stats["held_by_partition"] > 0
        # quorum ops complete after n-f replies, so a message held for the
        # partitioned server may outlive the run — but nothing was lost:
        assert stats["dropped_requests"] + stats["dropped_responses"] == 0
        assert not emulation.history.pending_ops


class TestDropsSafetyOnly:
    """Drops break eventual delivery: liveness is NOT asserted, safety is."""

    DROPPY = chaos_faults(drop=0.15, duplicate=0.1, reorder=0.3, max_delay=10)

    @pytest.mark.parametrize("algorithm", ["abd", "ws-register"])
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_safety_holds_whatever_completes(self, algorithm, seed):
        emulation = run_lossy(
            algorithm, self.DROPPY, seed, require_live=False
        )
        if algorithm == "abd":
            assert is_linearizable(
                emulation.history.all_ops(), RegisterSpec(None)
            )
        else:
            assert check_mw_regular_weak(emulation.history) == []

    def test_heavy_drops_starve_liveness(self):
        plan = chaos_faults(drop=0.9, duplicate=0.0, reorder=0.0, max_delay=2)
        emulation = run_lossy("abd", plan, seed=2, require_live=False)
        stats = emulation.kernel.transport.stats()
        assert stats["dropped_requests"] + stats["dropped_responses"] > 0
        incomplete = emulation.history.pending_ops
        assert incomplete, "0.9 drop rate should strand some operation"
        # ... and yet what did complete is still consistent:
        assert is_linearizable(
            emulation.history.all_ops(), RegisterSpec(None)
        )


class TestReproducibility:
    PLAN = chaos_faults(drop=0.1, duplicate=0.1, reorder=0.4, max_delay=12)

    def _fingerprint(self, seed):
        emulation = run_lossy("abd", self.PLAN, seed, require_live=False)
        blob = json.dumps(emulation.history.to_dicts(), sort_keys=True)
        return blob, dict(emulation.kernel.transport.counters)

    def test_same_seed_replays_exactly(self):
        assert self._fingerprint(4) == self._fingerprint(4)

    def test_different_seeds_diverge(self):
        fingerprints = {self._fingerprint(seed)[0] for seed in range(6)}
        assert len(fingerprints) > 1


class TestIncrementalParity:
    def test_incremental_state_matches_oracle_under_lossy_delivery(self):
        spec = EmulationSpec.make(
            "abd",
            n=3,
            f=1,
            seed=6,
            transport=TransportConfig.lossy(EVENTUAL_DELIVERY, seed=13),
        )
        emulation = spec.build()
        writer = emulation.add_writer(0)
        reader = emulation.add_reader()
        writer.enqueue("write", "x")
        writer.enqueue("write", "y")
        reader.enqueue("read")
        kernel = emulation.kernel
        for _ in range(5_000):
            result = kernel.run(max_steps=1)
            kernel.check_incremental()
            if result.reason in ("quiescent", "blocked"):
                break
        assert kernel.clients_quiescent()
        assert_safe("abd", emulation)
