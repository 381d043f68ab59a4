"""Experiment T — transport-seam throughput (steps/sec).

Drives the same saturated WSRegister workload as the kernel hot-path
benchmark through the transport seam:

* ``baseline`` — the kernel's default-constructed
  :class:`~repro.net.transport.InProcTransport` (``active = False``: the
  run loop never pumps; this is the kernel hot path itself);
* ``inproc`` — the same transport built via
  ``TransportConfig.inproc().build()`` and installed with
  ``set_transport``, i.e. the configured path every ``EmulationSpec``
  takes;
* ``lossy-idle`` — :class:`~repro.net.lossy.LossyTransport` with an
  empty fault plan: every message goes through the heap/pump machinery
  but nothing is perturbed, isolating the cost of an *active* transport.
  A server no rule can ever touch compiles to a ``None`` table entry
  (no fate is drawn for its messages), which is expected to keep this
  near the in-proc number, and the bar below enforces it;
* ``lossy-chaos`` — the same machinery with duplicates, reorders and
  delays enabled (no drops: a saturated run must stay live, and dropped
  requests would strand every client).

The acceptance bar is the transport extraction's perf contract: on the
medium (k=5, n=6, f=2) Figure 1 configuration, the configured ``inproc``
path may cost at most 5% of the baseline measured *in the same process*
(wall-clock numbers recorded in other sessions — including
``BENCH_kernel.json`` — are not machine-comparable; the recorded kernel
figure is carried in the artifact as context only).  The bar is what
catches the real regression class here: an ``InProcTransport`` that
accidentally turns ``active`` or grows per-step work.  Results go to
``benchmarks/BENCH_transport.json``.

``BENCH_TRANSPORT_SMOKE=1`` shrinks the run for CI smoke mode (the 5%
bar loosens to 15% — shared runners are noisy).
"""

import json
import os
import time

from repro.analysis.tables import render_table
from repro.core.ws_register import WSRegisterEmulation
from repro.net import FaultPlan, TransportConfig, chaos_faults
from repro.sim.scheduling import RandomScheduler

ARTIFACT_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_transport.json"
)
KERNEL_ARTIFACT_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_kernel.json"
)

K, N, F = 5, 6, 2  # the medium Figure 1 configuration

SMOKE = os.environ.get("BENCH_TRANSPORT_SMOKE", "") not in ("", "0")
STEPS = 6_000 if SMOKE else 20_000
REPEATS = 2 if SMOKE else 4
#: the seam's perf contract: configured inproc vs same-process baseline.
MAX_INPROC_OVERHEAD = 0.15 if SMOKE else 0.05
#: the idle contract: an empty-plan lossy run draws no fates at all
#: (every compiled table entry is ``None``), so it must stay near the
#: in-proc number (~0.9x).  Loose in smoke mode — shared runners are
#: noisy.
MIN_LOSSY_IDLE_FRACTION = 0.3 if SMOKE else 0.65

TRANSPORTS = [
    ("baseline", None),
    ("inproc", TransportConfig.inproc()),
    ("lossy-idle", TransportConfig.lossy(FaultPlan(), seed=7)),
    (
        "lossy-chaos",
        TransportConfig.lossy(
            chaos_faults(drop=0.0, duplicate=0.05, reorder=0.3, max_delay=20),
            seed=7,
        ),
    ),
]


def _steps_per_sec(config, seed=7, readers=3):
    emu = WSRegisterEmulation(K, N, F, scheduler=RandomScheduler(seed))
    if config is not None:
        emu.kernel.set_transport(config.build())
    writer_handles = [emu.add_writer(index) for index in range(K)]
    reader_handles = [emu.add_reader() for _ in range(readers)]
    value = 0

    def refill(kernel):
        nonlocal value
        for writer in writer_handles:
            if writer.idle and not writer.program:
                writer.enqueue("write", value)
                value += 1
        for reader in reader_handles:
            if reader.idle and not reader.program:
                reader.enqueue("read")
        return False  # never satisfied: run for exactly STEPS steps

    start = time.perf_counter()
    result = emu.kernel.run(max_steps=STEPS, until=refill)
    elapsed = time.perf_counter() - start
    assert result.steps == STEPS
    return result.steps / elapsed


def _measure_all():
    """Best-of-``REPEATS`` per transport, rounds interleaved.

    Machine speed drifts over a multi-second benchmark (shared boxes,
    frequency scaling); measuring each transport as a sequential block
    would fold that drift into the ratios.  Interleaving gives every
    transport a sample in every time slice, so the best-of ratios
    compare like with like.  One untimed warmup run absorbs import and
    allocator warmup.
    """
    _steps_per_sec(None)
    best = {label: 0.0 for label, _ in TRANSPORTS}
    for _ in range(REPEATS):
        for label, config in TRANSPORTS:
            best[label] = max(best[label], _steps_per_sec(config))
    return best


def test_transport_throughput():
    with open(KERNEL_ARTIFACT_PATH, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    recorded_medium = recorded["configs"]["medium"]["run_steps_per_sec"]

    artifact = {
        "benchmark": "transport_seam",
        "mode": "smoke" if SMOKE else "full",
        "config": {"k": K, "n": N, "f": F},
        "steps_per_transport": STEPS,
        "recorded_kernel_steps_per_sec": recorded_medium,  # context only
        "transports": {},
    }
    throughputs = _measure_all()
    rows = []
    for label, _ in TRANSPORTS:
        throughput = throughputs[label]
        artifact["transports"][label] = {
            "steps_per_sec": round(throughput),
            "vs_baseline": round(throughput / throughputs["baseline"], 3),
        }
        rows.append(
            [
                label,
                f"{throughput:,.0f}",
                f"{throughput / throughputs['baseline']:.2f}x",
            ]
        )
    with open(ARTIFACT_PATH, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    print(
        render_table(
            ["transport", "steps/sec", "vs baseline"],
            rows,
            title=(
                f"Transport seam @ k={K}, n={N}, f={F}"
                f" — steps/sec ({artifact['mode']} mode)"
            ),
        )
    )

    inproc = artifact["transports"]["inproc"]["vs_baseline"]
    assert inproc >= 1.0 - MAX_INPROC_OVERHEAD, (
        f"configured inproc throughput is {inproc:.2f}x baseline; the"
        f" transport seam may cost at most {MAX_INPROC_OVERHEAD:.0%}"
    )
    lossy_idle = artifact["transports"]["lossy-idle"]["vs_baseline"]
    assert lossy_idle >= MIN_LOSSY_IDLE_FRACTION, (
        f"empty-plan lossy throughput collapsed to {lossy_idle:.2f}x"
        " baseline; the pump machinery regressed"
    )
