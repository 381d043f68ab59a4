"""Open-loop load generation against the sharded KV service.

Operations arrive on a seeded Poisson process at a configured rate and
are *submitted regardless of whether earlier operations completed* —
the open-loop discipline.  Latency therefore includes queueing delay:
when the service falls behind the offered rate, latencies grow without
bound instead of the generator politely slowing down, which is exactly
the signal a capacity experiment needs (closed-loop generators hide
saturation by self-throttling — the coordinated-omission trap).

Thousands of concurrent :class:`~repro.apps.shard.service.ServiceSession`
handles issue the traffic; keys are drawn Zipfian
(:class:`~repro.workloads.generators.ZipfKeys`), so a few hot keys
concentrate load on their shards while the tail exercises placement
breadth.

This module reads no clock of its own — ``clock``/``sleep`` callables
are injected (the CLI passes ``time.perf_counter``/``time.sleep``), so
the module stays inside the repo's simulation discipline (lint R002)
and tests can drive it with a fake clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.shard.service import ShardedKVService
from repro.errors import InvalidConfig, ShardCapacityExceeded
from repro.workloads.generators import ZipfKeys


@dataclass
class Scenario:
    """A fault injected mid-run: ``action()`` fires once at ``at`` seconds
    of elapsed run time.  ``action`` returns a short description that is
    recorded in the report's scenario log."""

    at: float
    name: str
    action: "Callable[[], Optional[str]]"


#: kernel steps per shard between two admission passes: bounded, so the
#: loop keeps wall-clock pacing even when a shard has a deep queue
STEP_BUDGET = 4_000


def _percentile(sorted_values: "List[float]", fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * len(sorted_values))
    )
    return sorted_values[index]


def run_loadgen(
    service: ShardedKVService,
    *,
    clock: "Callable[[], float]",
    sleep: "Callable[[float], None]",
    rate: float = 500.0,
    duration: float = 5.0,
    sessions: int = 1000,
    keys: int = 100,
    zipf_s: float = 1.1,
    read_fraction: float = 0.7,
    seed: int = 0,
    scenarios: "Sequence[Scenario]" = (),
    drain_timeout: float = 15.0,
) -> "Dict[str, Any]":
    """Drive Zipfian traffic at ``rate`` ops/s for ``duration`` seconds.

    Returns the report dict: ``benchmark`` (``"kv_loadgen"``),
    ``params``, ``offered_ops`` / ``completed_ops`` / ``incomplete_ops``
    / ``failed_submits``, ``sustained_fraction``, ``throughput_ops_s``,
    ``wall_seconds``, ``latency_ms`` (mean, p50, p95, p99, max), the
    ``scenarios`` log and the per-key consistency ``audit`` (keys, ok,
    ok_fraction, all_ok).
    """
    if rate <= 0 or duration <= 0:
        raise InvalidConfig("rate and duration must be positive")
    if sessions <= 0:
        raise InvalidConfig("need at least one session")
    rng = random.Random(seed)
    sampler = ZipfKeys(keys, s=zipf_s, seed=seed + 1)

    # Writer identities must respect the tightest register-substrate
    # bound; unbounded substrates take any identity (the service folds
    # them onto its client pool).
    register_bounds = [
        shard.k_writers
        for shard in service.config.shards
        if shard.substrate == "register"
    ]
    writer_span = min(register_bounds) if register_bounds else sessions
    pool = [
        service.session(writer=index % writer_span)
        for index in range(sessions)
    ]

    service.set_completion_clock(clock)
    pending: "Dict[int, Tuple[float, str]]" = {}
    latencies: "List[float]" = []
    scenario_log: "List[Dict[str, Any]]" = []
    todo = sorted(scenarios, key=lambda s: s.at)
    fired = 0
    offered = 0
    failed_submits = 0

    start = clock()
    deadline = start + duration
    next_arrival = start

    def _drain() -> None:
        for token, _name, _result, stamp in service.drain_completions():
            started = pending.pop(token, None)
            if started is not None:
                end = stamp if stamp is not None else clock()
                latencies.append(end - started[0])

    now = start
    while now < deadline:
        # Fire due scenarios (one per loop pass keeps bookkeeping simple).
        if fired < len(todo) and now - start >= todo[fired].at:
            scenario = todo[fired]
            detail = scenario.action()
            scenario_log.append(
                {
                    "name": scenario.name,
                    "at_s": round(now - start, 3),
                    "detail": detail or "",
                }
            )
            fired += 1
        # Admit every arrival whose scheduled time has passed (open loop:
        # no waiting for completions).
        while next_arrival <= now:
            token = offered
            offered += 1
            session = pool[token % sessions]
            key = sampler.key()
            try:
                if rng.random() < read_fraction:
                    pending[token] = (next_arrival, "get")
                    session.submit_get(key, token=token)
                else:
                    pending[token] = (next_arrival, "put")
                    session.submit_put(key, f"v{token}", token=token)
            except ShardCapacityExceeded:
                # A shard refusing the op is load the service shed, not
                # generator failure; anything else is a bug and propagates.
                pending.pop(token, None)
                failed_submits += 1
            next_arrival += rng.expovariate(rate)
        service.step(max_steps_per_shard=STEP_BUDGET)
        _drain()
        now = clock()
        if next_arrival > now and not pending:
            sleep(min(0.001, next_arrival - now))
            now = clock()

    # Stop admitting; let in-flight operations finish (bounded).
    drain_deadline = clock() + drain_timeout
    while pending and clock() < drain_deadline:
        service.step(max_steps_per_shard=STEP_BUDGET)
        _drain()
    finished = clock()
    service.set_completion_clock(None)

    wall = finished - start
    completed = len(latencies)
    latencies.sort()
    audits = service.audit()
    audit_ok = sum(1 for ok in audits.values() if ok)
    report: "Dict[str, Any]" = {
        "benchmark": "kv_loadgen",
        "params": {
            "rate_ops_s": rate,
            "duration_s": duration,
            "sessions": sessions,
            "keys": keys,
            "zipf_s": zipf_s,
            "read_fraction": read_fraction,
            "seed": seed,
            "shards": service.config.n_shards,
            "substrates": [s.substrate for s in service.config.shards],
            "n": [s.n for s in service.config.shards],
            "f": [s.f for s in service.config.shards],
        },
        "offered_ops": offered,
        "completed_ops": completed,
        "failed_submits": failed_submits,
        "incomplete_ops": len(pending),
        "sustained_fraction": (completed / offered) if offered else 0.0,
        "wall_seconds": round(wall, 4),
        "throughput_ops_s": round(completed / wall, 2) if wall > 0 else 0.0,
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50) * 1e3, 3),
            "p95": round(_percentile(latencies, 0.95) * 1e3, 3),
            "p99": round(_percentile(latencies, 0.99) * 1e3, 3),
            "mean": round(
                (sum(latencies) / completed) * 1e3 if completed else 0.0, 3
            ),
            "max": round(
                (latencies[-1] * 1e3) if latencies else 0.0, 3
            ),
        },
        "scenarios": scenario_log,
        "audit": {
            "keys": len(audits),
            "ok": audit_ok,
            "ok_fraction": (audit_ok / len(audits)) if audits else 1.0,
            "all_ok": audit_ok == len(audits),
        },
    }
    return report
