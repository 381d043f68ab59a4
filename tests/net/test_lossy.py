"""LossyTransport: safety under network faults, liveness under fairness.

The scenarios here are the executable form of the distinction in
docs/MODEL.md: injected network faults are out-of-model stressors, so
the safety checkers must pass under *every* seeded fault plan, while
liveness (runs completing) is asserted only for plans that preserve
eventual delivery — no drops, partitions that heal.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.consistency.linearizability import is_linearizable
from repro.consistency.mw_regularity import check_mw_regular_weak
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.specs import MaxRegisterSpec, RegisterSpec
from repro.consistency.ws import check_ws_regular
from repro.core.emulation import EmulationSpec
from repro.net import (
    Delay,
    Drop,
    Duplicate,
    FaultPlan,
    LinkFaults,
    Partition,
    Reorder,
    TransportConfig,
    chaos_faults,
)
from repro.net.faults import REQUEST, RESPONSE
from repro.net.lossy import LossyTransport
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.system import build_system

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


class TestCompiledLinkTable:
    """``bind`` resolves the plan into one entry per server; the send
    path must decide exactly what ``FaultPlan.fate`` decides."""

    PLAN = FaultPlan(
        per_server=(
            (1, LinkFaults(drop=Drop(0.3), delay=Delay(0, 6))),
            (2, LinkFaults(duplicate=Duplicate(0.4, offset=3),
                           reorder=Reorder(0.5, window=9))),
        ),
        partitions=(
            Partition(start=10, heal=40, servers=(3,)),
            Partition(start=20, heal=60, servers=(3, 4)),  # overlaps
            Partition(start=50, heal=None, servers=(4,)),  # never heals
        ),
    )
    SEED = 21

    def _bound(self, plan):
        transport = LossyTransport(plan, seed=self.SEED)
        system = build_system(
            6, [(i, "register", None) for i in range(6)], transport=transport
        )
        return system.kernel, transport

    def test_neutral_servers_compile_to_none(self):
        _, transport = self._bound(self.PLAN)
        entries = [transport._links[i] for i in range(6)]
        assert entries[0] is None and entries[5] is None
        assert all(entry is not None for entry in entries[1:5])
        assert entries[3].link.is_neutral  # partitions alone keep it live
        assert [len(entry.windows) for entry in entries[1:5]] == [0, 0, 2, 2]
        _, idle = self._bound(FaultPlan())
        assert set(idle._links.values()) == {None}

    def test_send_path_agrees_with_the_plan_on_a_grid(self):
        kernel, transport = self._bound(self.PLAN)
        sent = {REQUEST: "requests_sent", RESPONSE: "responses_sent"}
        dropped = {REQUEST: "dropped_requests", RESPONSE: "dropped_responses"}
        doubled = {
            REQUEST: "duplicate_requests",
            RESPONSE: "duplicate_responses",
        }
        seen = Counter()
        op_value = 0
        for server in range(6):
            for time in range(0, 75):
                for leg in (REQUEST, RESPONSE):
                    op_value += 1
                    op = LowLevelOp(
                        OpId(op_value), ClientId(0), ObjectId(server),
                        OpKind.READ, (), time, None, None, None,
                    )
                    fate = self.PLAN.fate(
                        self.SEED, op_value, leg, server, time
                    )
                    kernel.time = time
                    transport.counters = Counter()
                    first_seq, queue = transport._send_seq, []
                    transport._send(op, leg, queue)

                    expected, counts = [], Counter({sent[leg]: 1})
                    if fate.dropped:
                        counts[dropped[leg]] += 1
                    elif fate.partitioned:
                        counts["held_by_partition"] += 1
                        expected.append((fate.heal_time, first_seq, op))
                    else:
                        counts["reordered"] += fate.reordered
                        expected.append((time + fate.delay, first_seq, op))
                        if fate.duplicated:
                            counts[doubled[leg]] += 1
                            expected.append(
                                (time + fate.duplicate_delay, first_seq + 1, op)
                            )
                    assert sorted(queue) == expected, (server, time, leg)
                    assert +transport.counters == +counts, (server, time, leg)
                    seen.update(counts)
        # the grid really visited every kind of fate
        for name in (*dropped.values(), *doubled.values(),
                     "held_by_partition", "reordered"):
            assert seen[name] > 0, name

    def test_empty_plan_replays_the_parent_idle_path(self):
        # Pinned at the commit that still had the `_all_neutral` idle
        # shortcut: an empty plan through the compiled table (every
        # entry None) must pick the same actions and record the same
        # history, bit for bit.
        spec = EmulationSpec.make(
            "abd", n=3, f=1, seed=4,
            transport=TransportConfig.lossy(FaultPlan(), seed=9),
        )
        emulation = spec.build()
        scheduler, script = emulation.kernel.scheduler, []
        pick = scheduler.pick

        def recording_pick(clients, responds, kernel):
            index = pick(clients, responds, kernel)
            if index < len(clients):
                script.append(("CLIENT", clients[index].client_id.index, None))
            else:
                op = responds[index - len(clients)]
                script.append(("RESPOND", None, int(op.op_id)))
            return index

        scheduler.pick = recording_pick
        writer, reader = emulation.add_writer(0), emulation.add_reader()
        for i in range(4):
            writer.enqueue("write", f"v{i}")
            reader.enqueue("read")
            assert emulation.system.run_to_quiescence(100_000).satisfied

        def sha256(payload, **kwargs):
            blob = json.dumps(payload, **kwargs).encode()
            return hashlib.sha256(blob).hexdigest()

        assert sha256(script) == (
            "339c4c1ce46fdd2de590b6c35dc1561cb119082bf61ec9436a4bbc498afd39ea"
        )
        assert sha256(emulation.history.to_dicts(), sort_keys=True) == (
            "3d92dbb03e2590747a21241e080733d38a578be63f12846c7977b798239c8be7"
        )
        stats = emulation.kernel.transport.stats()
        assert (stats["requests_sent"], stats["responses_sent"]) == (48, 47)
        assert sum(stats.values()) == 95  # nothing else ever counted
