"""Tests of the benchmark harness itself (not part of tier-1).

    python -m pytest benchmarks/e2e -q
"""

import json
import sys
import time

import pytest

from benchmarks.e2e import ROOT, cli, inputs, spec
from benchmarks.e2e.timing import (
    CHUNK_S,
    REF_CHUNK_S,
    Normaliser,
    ScaledClock,
    median,
    percentile,
    run_open_loop,
    scale_samples,
    tail_supported,
    total_seconds,
)
from benchmarks.e2e.workloads import SIZES, make_workload

# -- normaliser and percentile rules -------------------------------------------


class _Host:
    """A fake host: a clock the test moves, and a reference chunk that takes
    as long as the host is currently slow."""

    def __init__(self):
        self.now = 0.0
        self.slowdown = 1.0

    def clock(self):
        return self.now

    def reference(self):
        taken = REF_CHUNK_S * self.slowdown
        self.now += taken
        return taken

    def work(self, reference_seconds):
        self.now += reference_seconds * self.slowdown


def test_a_window_is_cut_into_chunks_scaled_by_their_adjacent_references():
    host = _Host()
    norm = Normaliser(reference=host.reference, clock=host.clock)

    def body(done):
        # ten units of 4 ms each on a reference-speed host ...
        for _ in range(10):
            host.work(0.004)
            done(1)
        # ... then the host drops to half speed for ten more
        host.slowdown = 2.0
        for _ in range(10):
            host.work(0.004)
            done(1)
        return "value"

    value, chunks = norm.measure(body)
    assert value == "value"
    assert sum(chunk.units for chunk in chunks) == 20
    # a chunk closes once CHUNK_S of raw time has passed: 4 units, then 2
    assert [chunk.units for chunk in chunks[:2]] == [4, 4]
    assert all(chunk.raw_s >= CHUNK_S for chunk in chunks[:-1])
    # both halves read 4 ms per unit once scaled; only the chunk that
    # straddles the change is off, and only by its share
    per_unit = [chunk.seconds / chunk.units for chunk in chunks]
    assert per_unit[0] == pytest.approx(0.004)
    assert per_unit[-1] == pytest.approx(0.004)
    assert total_seconds(chunks) == pytest.approx(0.080, rel=0.1)
    # reference chunks are not part of any chunk's time
    assert sum(chunk.raw_s for chunk in chunks) == pytest.approx(0.040 + 0.080)
    assert norm.speed_spread() == pytest.approx(2.0)


def test_samples_take_the_factor_of_the_chunk_they_fell_in():
    host = _Host()
    norm = Normaliser(reference=host.reference, clock=host.clock)
    samples = []

    def body(done):
        for slowdown in (1.0, 3.0):
            host.slowdown = slowdown
            for _ in range(8):
                host.work(0.005)
                samples.append(0.005 * slowdown)
                done(1)

    _, chunks = norm.measure(body)
    scaled = list(scale_samples(samples, chunks))
    assert len(scaled) == 16
    assert scaled[0] == pytest.approx(0.005)
    assert scaled[-1] == pytest.approx(0.005)
    assert median(scaled) == pytest.approx(0.005, rel=0.05)


def test_percentile_is_nearest_rank_and_knows_its_support():
    ordered = [float(i) for i in range(1, 101)]
    assert percentile(ordered, 0.50) == 51.0
    assert percentile(ordered, 0.99) == 100.0
    assert percentile([7.0], 0.99) == 7.0
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    # ten samples must lie beyond a percentile for it to be reported as one
    assert tail_supported(1100, 0.99)
    assert not tail_supported(1000, 0.99)
    assert tail_supported(110, 0.90)
    assert not tail_supported(0, 0.5)
    with pytest.raises(ValueError):
        percentile([], 0.5)


# -- input streams ----------------------------------------------------------------


def test_same_seed_same_operations_other_seed_other_operations():
    again = [
        inputs.kv_ops(7, "kv_sim_read", "sat0", 2, 200, 0.9) for _ in range(2)
    ]
    assert again[0] == again[1]
    assert again[0] != inputs.kv_ops(8, "kv_sim_read", "sat0", 2, 200, 0.9)
    assert again[0] != inputs.kv_ops(7, "kv_sim_read", "sat0", 3, 200, 0.9)
    assert inputs.ws_rounds(7, "w", "sat0", 0, 10, 5, 3) == inputs.ws_rounds(
        7, "w", "sat0", 0, 10, 5, 3
    )
    assert inputs.poisson_arrivals(
        7, "w", "load0", 0, 100.0, 0.5
    ) == inputs.poisson_arrivals(7, "w", "load0", 0, 100.0, 0.5)


def test_a_phase_does_not_depend_on_the_other_phases():
    # drawing another phase first (or resizing it) leaves this one alone
    alone = inputs.kv_ops(7, "kv_sim_read", "sat1", 0, 50, 0.9)
    inputs.kv_ops(7, "kv_sim_read", "sat0", 0, 5000, 0.9)
    inputs.kv_ops(7, "kv_sim_read", "a-new-phase", 0, 10, 0.5)
    assert inputs.kv_ops(7, "kv_sim_read", "sat1", 0, 50, 0.9) == alone
    # and a longer stream starts with the shorter one
    assert inputs.kv_ops(7, "kv_sim_read", "sat1", 0, 80, 0.9)[:50] == alone


def test_operations_have_the_promised_shape():
    ops = inputs.kv_ops(7, "kv_sim_read", "sat0", 0, 2000, 0.9)
    gets = sum(1 for op in ops if op.kind == inputs.GET)
    assert 0.85 < gets / len(ops) < 0.95
    values = [op.value for op in ops if op.kind == inputs.PUT]
    assert len(set(values)) == len(values)
    assert all(inputs.value_belongs_to(op.key, op.value) for op in ops if op.value)
    assert not inputs.value_belongs_to("key-1", "key-10=sat0.3")
    assert not inputs.value_belongs_to("key-1", None)
    for round_ops in inputs.ws_rounds(7, "w", "sat0", 0, 30, 5, 3):
        assert len(round_ops) == 8
        assert sum(1 for op in round_ops if op.name == "write") == 1


# -- the open loop on a fake clock ------------------------------------------------


def test_open_loop_latency_lateness_and_fast_forward():
    host = _Host()
    host.slowdown = 2.0  # the host runs at half speed throughout
    clock = ScaledClock(host.reference, host.clock)
    assert clock() == 0.0  # calibration does not count as time
    pending = []

    def submit(index):
        pending.append(index)
        return True

    def pump():  # one reference second of work per pump (two on this host)
        host.work(1.0)
        done = [(index, clock()) for index in pending]
        pending.clear()
        return done

    result = run_open_loop([1.0, 1.1, 5.0], clock, submit, pump)
    # op 0 is admitted on time at 1.0 and done at 2.0; op 1 was due at 1.1
    # but the driver was busy until 2.0 (0.9 late) and is done at 3.0, 1.9
    # after it was *due*; the idle stretch to 5.0 is skipped, not slept
    assert result.latencies_s == pytest.approx([1.0, 1.9, 1.0])
    assert result.lateness_s == pytest.approx([0.0, 0.9, 0.0])
    assert result.unfinished == 0
    assert clock.skipped == pytest.approx(3.0)
    assert result.idle_frac == pytest.approx(0.5)


def test_the_clock_follows_the_host_when_it_is_idle():
    host = _Host()
    clock = ScaledClock(host.reference, host.clock)
    host.work(1.0)
    assert clock() == pytest.approx(1.0)
    host.slowdown = 4.0  # the host slows down; the clock notices when idle
    for _ in range(3):
        host.work(CHUNK_S)
        clock.idle()
    before = clock()
    host.work(1.0)  # one reference second of work takes four wall seconds
    assert clock() - before == pytest.approx(1.0)
    # looking at the host took wall time, but no clock time
    wall = host.now
    clock.idle()
    host.work(CHUNK_S)
    clock.idle()
    assert host.now > wall + CHUNK_S * host.slowdown
    assert clock() - before == pytest.approx(1.0 + CHUNK_S)


def test_open_loop_gives_up_on_a_stuck_system():
    host = _Host()
    clock = ScaledClock(host.reference, host.clock)

    def pump():
        host.work(1.0)
        return []

    result = run_open_loop(
        [0.0, 0.5], clock, lambda index: True, pump, drain_limit_s=3.0
    )
    assert result.unfinished == 2
    assert result.latencies_s == []


# -- names and bounds -----------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        document = json.load(handle)
    assert document == spec.benchmark_json()
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(set(names)) == len(names)
    assert "setup_s" in {m.name for m in spec.END_TO_END}
    assert max(m.bound for m in spec.END_TO_END) == dict(
        (m.name, m.bound) for m in spec.END_TO_END
    )["setup_s"]
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert set(SIZES) == set(spec.WORKLOAD_NAMES)


# -- the hot-key guard ----------------------------------------------------------------


def test_hot_key_guard_raises_before_the_checker_would():
    # is_linearizable recurses once per operation of a key's history
    assert inputs.HOT_KEY_LIMIT + 100 < sys.getrecursionlimit()
    hot = [inputs.KVOp(inputs.GET, "key-0", 0, None)] * (inputs.HOT_KEY_LIMIT - 1)
    assert inputs.check_hot_key([hot]) == inputs.HOT_KEY_LIMIT - 1
    with pytest.raises(inputs.HotKeyError, match="key-0"):
        inputs.check_hot_key([hot, hot[:1]])


def test_the_benchmarks_own_sizes_stay_clear_of_the_guard():
    for name in ("kv_sim_read", "kv_sock_read", "kv_lossy_faults"):
        workload = make_workload(name, spec.DEFAULT_SEED)
        sizes = workload.sizes
        per_epoch = (
            inputs.KEYS
            + sizes.warm
            + sizes.unloaded * sizes.unloaded_slices
            + sizes.sat * sizes.sat_slices
            + sizes.load_rate * sizes.load_slice_s * sizes.load_slices
        )
        # the hottest of 128 Zipf(0.6) keys takes 6.5% of the traffic
        assert per_epoch * 0.065 < 0.85 * inputs.HOT_KEY_LIMIT, name


# -- the whole command, small ------------------------------------------------------------


def test_smoke_run_of_all_four_workloads(capsys):
    started = time.perf_counter()
    assert cli.main(["--smoke"]) == 0
    assert time.perf_counter() - started < 15.0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {
        f"{workload}/{metric.name}"
        for workload in spec.WORKLOAD_NAMES
        for metric in spec.END_TO_END
    }
    assert last["metrics"]["kernel_ws_medium/base_objects_per_key"]["value"] == 25
    assert last["metrics"]["kv_lossy_faults/base_objects_per_key"]["value"] == 4


def test_traced_smoke_run_reports_every_per_layer_metric(capsys, tmp_path):
    out = tmp_path / "result.json"
    code = cli.main(
        ["--workload", "kv_sock_read", "--smoke", "--trace", "1", "--out", str(out)]
    )
    assert code == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last["metrics"]) == {m.name for m in spec.PER_LAYER}
    assert all(
        entry["unit"] == spec.UNITS[name] for name, entry in last["metrics"].items()
    )
    document = json.loads(out.read_text())
    (result,) = document["results"]
    assert {"seed", "python", "nproc", "pinned_cpu", "speed_factor"} <= set(
        result["conditions"]
    )
    rows = result["trace"]["rows"]
    names = {row["name"] for row in rows}
    assert {"slice", "op", "submit", "step", "run_to_quiescence", "encode"} <= names
    # a child span lies inside its parent
    child = next(row for row in rows if row["name"] == "encode" and row["parent"])
    parent = rows[child["parent"]]
    assert parent["start"] <= child["start"] <= child["end"] <= parent["end"]
