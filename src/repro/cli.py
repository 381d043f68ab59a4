"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``bounds  -k K -n N -f F``  — print the Table 1 row for the parameters.
* ``layout  -k K -n N -f F``  — print the Figure 1-style register layout.
* ``sweep   -k K -f F``       — register bounds vs the server count,
  measured on deployed Algorithm 2 layouts (Theorem 1 through the grid
  engine: one cell per n).
* ``lemma1  -k K -n N -f F``  — run the lower-bound adversary against
  Algorithm 2 and print the covering growth.
* ``ablate``                  — break Algorithm 2's mechanisms and show
  the resulting WS-Safety violations (one cell per variant).
* ``experiment <id>``         — regenerate paper tables/figures by id.
* ``queue <verb>``            — the distributed experiment queue:
  ``create`` enqueues a grid into a shared sqlite table, ``work`` runs
  a claim/execute/write-back worker (any number of them, any machine),
  ``status``/``reset`` inspect and reopen cells, ``export`` renders the
  finished table (``table|csv|md|latex``).
* ``demo``                    — a quick write/read/crash walkthrough.

``experiment``, ``sweep`` and ``ablate`` route through the parallel
experiment engine (:mod:`repro.exec`): their cells are enqueued into
the cell table ``<--cache-dir>/cells.sqlite`` (default
``.repro_cache/``), the same table ``repro queue`` works on, so its DONE
rows are the result cache and repeated invocations complete without
simulating a single kernel step; ``--jobs N`` drains the rest with N
forked queue workers.  Tables print to stdout; per-cell progress and
the ``engine: cells=... hits=... misses=...`` summary go to stderr, so
stdout stays byte-identical between serial, parallel and cached runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import render_table
from repro.core import bounds
from repro.core.emulation import algorithm_names
from repro.core.layout import RegisterLayout
from repro.core.lemma1 import Lemma1Runner
from repro.core.ws_register import WSRegisterEmulation
from repro.exec import (
    expand_experiment,
    merge_results,
    run_cells,
    run_experiment_grid,
)
from repro.sim.ids import ServerId
from repro.sim.scheduling import RandomScheduler


def _add_knf(parser: argparse.ArgumentParser, need_n: bool = True) -> None:
    parser.add_argument("-k", type=int, default=3, help="number of writers")
    if need_n:
        parser.add_argument("-n", type=int, default=7, help="number of servers")
    parser.add_argument("-f", type=int, default=2, help="failure threshold")


def _add_seed(
    parser: argparse.ArgumentParser, default: "Optional[int]" = None
) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=default,
        help="scheduler seed (recorded in result payloads)",
    )


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent cells (1 = in-process)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent result cache entirely",
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="recompute every cell and overwrite its cached result",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro_cache",
        metavar="PATH",
        help="result cache root (default: .repro_cache)",
    )


def _add_export_flag(parser: argparse.ArgumentParser) -> None:
    from repro.exec.queue import EXPORT_FORMATS

    parser.add_argument(
        "--export",
        choices=EXPORT_FORMATS,
        default="table",
        help="stdout format for the result table (default: table,"
        " the classic ASCII rendering)",
    )


def _engine_cache(args) -> "Optional[str]":
    """The cell table's directory; ``--no-cache`` gets a throwaway one."""
    return None if args.no_cache else args.cache_dir


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_bounds(args) -> int:
    rows = []
    for base in ("max-register", "cas", "register"):
        row = bounds.table1_row(base, args.k, args.n, args.f)
        rows.append([base, row["lower"], row["upper"]])
    print(
        render_table(
            ["base object", "lower bound", "upper bound"],
            rows,
            title=f"Table 1 @ k={args.k}, n={args.n}, f={args.f}",
        )
    )
    return 0


def cmd_layout(args) -> int:
    layout = RegisterLayout(args.k, args.n, args.f)
    layout.validate()
    print(layout.render())
    return 0


def cmd_sweep(args) -> int:
    from repro.exec.queue import render_export

    result, report = run_experiment_grid(
        "TH1",
        {"k": args.k, "f": args.f},
        seed=args.seed,
        jobs=args.jobs,
        cache=_engine_cache(args),
        refresh=args.refresh,
        progress=_progress,
    )
    print(render_export(result, args.export))
    return 1 if report.failed else 0


def cmd_lemma1(args) -> int:
    def factory(scheduler):
        return WSRegisterEmulation(
            k=args.k, n=args.n, f=args.f, scheduler=scheduler
        )

    scheduler = None if args.seed is None else RandomScheduler(args.seed)
    runner = Lemma1Runner(factory, k=args.k, f=args.f, scheduler=scheduler)
    reports = runner.run()
    rows = [
        [r.index, r.covered, r.index * args.f, r.covered_servers_in_F]
        for r in reports
    ]
    print(
        render_table(
            ["write", "covered", ">= i*f", "covered on F"],
            rows,
            title=(
                f"Lemma 1 adversary vs Algorithm 2 @ k={args.k},"
                f" n={args.n}, f={args.f}"
            ),
        )
    )
    runner.assert_all_claims()
    print("all Lemma 1 claims hold")
    return 0


def cmd_ablate(args) -> int:
    result, report = run_experiment_grid(
        "ABL",
        {},
        jobs=args.jobs,
        cache=_engine_cache(args),
        refresh=args.refresh,
        progress=_progress,
    )
    print(result.render())
    return 1 if report.failed else 0


def cmd_theorem5(args) -> int:
    from repro.core.theorem5 import partition_violation

    violations = partition_violation(args.f)
    print(
        f"n = 2f = {2 * args.f} servers, f = {args.f}:"
        f" split-brain run -> {violations[0] if violations else 'no violation?'}"
    )
    print(f"Theorem 5 minimum: {bounds.min_servers(args.f)} servers")
    return 0 if violations else 1


def cmd_experiment(args) -> int:
    import json

    from repro.experiments import list_experiments

    if args.list or (args.id is None and not args.all):
        print("available experiments:")
        for experiment_id in list_experiments():
            print(f"  {experiment_id}")
        return 0
    ids = list_experiments() if args.all else [args.id]

    # One engine pass over every cell of every requested experiment: the
    # whole batch shares the workers, the cell table and one summary line.
    cells = []
    spans = []
    for experiment_id in ids:
        expansion = expand_experiment(experiment_id, {}, seed=args.seed)
        spans.append((len(cells), len(cells) + len(expansion)))
        cells.extend(expansion)
    report = run_cells(
        cells,
        jobs=args.jobs,
        cache=_engine_cache(args),
        refresh=args.refresh,
        progress=_progress,
    )
    results = []
    for experiment_id, (start, end) in zip(ids, spans):
        shard_results = [o.result for o in report.outcomes[start:end]]
        try:
            results.append(merge_results(shard_results))
        except ValueError:
            print(
                f"error: every cell of {experiment_id!r} failed",
                file=sys.stderr,
            )
    if args.json:
        payload = [result.to_dict() for result in results]
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {len(results)} experiment(s) to {args.json}")
    else:
        from repro.exec.queue import render_export

        for result in results:
            print(render_export(result, args.export))
            print()
    return 1 if report.failed else 0


def cmd_lint(args) -> int:
    from repro.lint import (
        lint_paths,
        render_explain,
        render_json,
        render_rules,
        render_sarif,
        render_text,
    )

    if args.list_rules:
        print(render_rules())
        return 0
    if args.explain:
        print(render_explain(args.explain))
        return 0
    try:
        result = lint_paths(args.paths or ["src"])
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        payload = render_json(result)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    if args.format == "sarif":
        print(render_sarif(result))
    elif args.format == "json":
        if args.json != "-":
            print(render_json(result))
    else:
        text = render_text(result, verbose=args.verbose)
        if args.json != "-":
            print(text)
    return 0 if result.ok else 1


def cmd_demo(args) -> int:
    emu = WSRegisterEmulation(
        k=1, n=5, f=2, scheduler=RandomScheduler(args.seed)
    )
    writer = emu.add_writer(0)
    reader = emu.add_reader()
    writer.enqueue("write", "hello, fault tolerance")
    emu.system.run_to_quiescence()
    emu.kernel.crash_server(ServerId(0))
    emu.kernel.crash_server(ServerId(1))
    reader.enqueue("read")
    emu.system.run_to_quiescence()
    value = emu.history.reads[-1].result
    print(
        f"wrote and read back {value!r} through 2 server crashes"
        f" ({emu.layout.total_registers} base registers, Theorem 3)"
    )
    return 0


def _build_emulation(args, **spec_params):
    """Build ``args.algorithm`` from ``-k/-n/-f``; ``None``, after a usage
    message, when the algorithm needs one that was not passed."""
    from repro.core.emulation import EmulationSpec

    spec = EmulationSpec.make(
        args.algorithm, k=args.k, n=args.n, f=args.f, **spec_params
    )
    try:
        return spec.build()
    except TypeError as error:
        print(
            f"error: {error} (pass -k/-n/-f as the algorithm requires)",
            file=sys.stderr,
        )
        return None


def cmd_cluster(args) -> int:
    from repro.net import TransportConfig

    if args.demo:
        args.algorithm, args.n, args.f, args.rounds = "abd", 3, 1, 2
    emulation = _build_emulation(
        args,
        seed=args.seed,
        transport=TransportConfig.asyncio(tuple(args.address)),
    )
    if emulation is None:
        return 2
    transport = emulation.kernel.transport
    try:
        writer = emulation.add_writer(0)
        reader = emulation.add_reader()
        for round_index in range(args.rounds):
            # Max-registers take ordered values; registers take any.
            value = (
                round_index + 1
                if emulation.CONDITION == "max-register-atomic"
                else f"value-{round_index}"
            )
            writer.enqueue(emulation.WRITE, value)
            reader.enqueue(emulation.READ)
            result = emulation.system.run_to_quiescence(max_steps=100_000)
            if not result.satisfied:
                print(f"cluster run stalled: {result}", file=sys.stderr)
                return 1
        where = transport.describe()
        history = emulation.history
        ok = emulation.audit()
    finally:
        transport.close()
    endpoints = where["addresses"] or [
        f"{where['host']}:{port}" for _, port in sorted(where["ports"].items())
    ]
    print(
        f"{args.algorithm} over real sockets ({', '.join(endpoints)}):"
        f" {len(history.all_ops())} ops, safety check"
        f" {'passed' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


def _shard_service_config(args):
    from repro.apps.shard import ShardServiceConfig

    return ShardServiceConfig.make(
        shards=args.shards,
        substrate=args.substrate,
        n=args.n if args.n is not None else 3,
        f=args.f if args.f is not None else 1,
        k_writers=args.k if args.k is not None else 4,
        capacity=args.capacity,
        seed=getattr(args, "seed", 0) or 0,
    )


def _serve_shards(args) -> int:
    """``repro serve --shards S``: host one node of a sharded service.

    The process serves sim server ``--server`` of *every* shard — one
    listener per shard, announced as ``serving s<i>/shard<j> on h:p``.
    Placements are a pure function of the shard config, so the load
    generator and every serve process rebuild identical base objects
    from the same flags.
    """
    from repro.apps.shard import shard_placements
    from repro.net.asyncio_transport import run_shard_servers

    config = _shard_service_config(args)
    shard_replicas = {}
    for shard_index, shard in enumerate(config.shards):
        placements, _ = shard_placements(shard)
        replicas = [
            (object_index, type_name, initial)
            for object_index, (server_index, type_name, initial) in enumerate(
                placements
            )
            if server_index == args.server
        ]
        if not replicas:
            print(
                f"error: no replicas for server {args.server} in shard"
                f" {shard_index} (servers: 0..{shard.n - 1})",
                file=sys.stderr,
            )
            return 2
        shard_replicas[shard_index] = replicas
    ports = None
    if args.ports:
        values = [int(port) for port in args.ports.split(",")]
        if len(values) != len(shard_replicas):
            print(
                f"error: --ports names {len(values)} port(s) for"
                f" {len(shard_replicas)} shards",
                file=sys.stderr,
            )
            return 2
        ports = dict(enumerate(values))
    try:
        run_shard_servers(
            args.server,
            shard_replicas,
            host=args.host,
            ports=ports,
        )
    except KeyboardInterrupt:
        pass
    return 0


def cmd_serve(args) -> int:
    from repro.net.asyncio_transport import (
        run_replica_server,
        snapshot_placements,
    )

    if args.shards is not None:
        return _serve_shards(args)
    emulation = _build_emulation(args, seed=0)
    if emulation is None:
        return 2
    placements = snapshot_placements(emulation.kernel.object_map)
    if args.server not in placements:
        print(
            f"error: no server {args.server} in this layout"
            f" (servers: {sorted(placements)})",
            file=sys.stderr,
        )
        return 2
    try:
        run_replica_server(
            args.server,
            placements[args.server],
            host=args.host,
            port=args.port,
        )
    except KeyboardInterrupt:
        pass
    return 0


def _spawn_shard_node(args, server_index: int, ports=None):
    """Start one `repro serve --shards` process; returns (proc, ports).

    Blocks until the process announces every shard listener; ``ports``
    pins the listener ports (process restart must reuse them so the
    transports' reconnect loops find the replica again).
    """
    import os
    import re
    import subprocess

    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--shards",
        str(args.shards),
        "--substrate",
        args.substrate,
        "-n",
        str(args.n if args.n is not None else 3),
        "-f",
        str(args.f if args.f is not None else 1),
        "-k",
        str(args.k if args.k is not None else 4),
        "--capacity",
        str(args.capacity),
        "--server",
        str(server_index),
    ]
    if ports:
        command += [
            "--ports",
            ",".join(str(ports[j]) for j in sorted(ports)),
        ]
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ),
    )
    announced = {}
    pattern = re.compile(r"serving s(\d+)/shard(\d+) on ([\d.]+):(\d+)")
    while len(announced) < args.shards:
        line = proc.stdout.readline()
        if not line:
            from repro.errors import QuorumUnavailable

            raise QuorumUnavailable(
                f"serve process for server {server_index} exited before"
                " announcing its listeners"
            )
        match = pattern.search(line)
        if match:
            announced[int(match.group(2))] = (
                match.group(3),
                int(match.group(4)),
            )
    return proc, announced


def _loadgen_scenarios(args, service, procs, ports_by_server):
    """Build the mid-run fault schedule for `repro loadgen`."""
    import signal

    from repro.apps.shard import Scenario

    if args.scenario == "none":
        return []
    n = args.n if args.n is not None else 3
    duration = args.duration
    partition_target = 1 % n
    crash_target = n - 1
    events = []

    def _partition():
        service.partition({partition_target})
        return f"blackholed server {partition_target} on every shard"

    def _heal():
        service.heal()
        return "partition healed"

    if procs:  # external serve processes: a crash is a real SIGKILL

        def _crash():
            procs[crash_target].send_signal(signal.SIGKILL)
            procs[crash_target].wait()
            return f"SIGKILLed serve process for server {crash_target}"

        def _restart():
            proc, _ = _spawn_shard_node(
                args, crash_target, ports=ports_by_server[crash_target]
            )
            procs[crash_target] = proc
            return (
                f"restarted serve process for server {crash_target}"
                " on its old ports"
            )

    else:  # self-hosted replicas: crash retains state (stable storage)

        def _crash():
            for fleet in service.fleets:
                fleet.transport.crash_replica(crash_target)
            return f"crashed self-hosted replica {crash_target}"

        def _restart():
            for fleet in service.fleets:
                fleet.transport.restart_replica(crash_target)
            return f"restarted replica {crash_target}"

    events.append(Scenario(0.20 * duration, "partition", _partition))
    events.append(Scenario(0.40 * duration, "heal", _heal))
    events.append(Scenario(0.55 * duration, "crash", _crash))
    events.append(Scenario(0.75 * duration, "restart", _restart))
    return events


def cmd_loadgen(args) -> int:
    """Open-loop Zipfian load against a sharded KV service."""
    import json
    import time

    from repro.apps.shard import ShardedKVService, run_loadgen

    n = args.n if args.n is not None else 3
    f = args.f if args.f is not None else 1
    if args.transport == "sim" and args.scenario == "gauntlet":
        # The gauntlet blackholes and crashes socket replicas; in-process
        # shards have neither a blackhole nor a replica to crash.
        print(
            "error: the gauntlet scenario partitions and crashes socket"
            " replicas; run it with --transport asyncio or --transport"
            " spawn, or use --scenario none",
            file=sys.stderr,
        )
        return 2
    if args.transport == "spawn" and args.scenario == "gauntlet":
        # A SIGKILLed serve process restarts with empty replicas —
        # amnesia consumes failure budget beyond the f crash-stop
        # allowance.  Every read quorum must still intersect every
        # write quorum in a non-amnesiac server: n >= 2f + 2.
        if n < 2 * f + 2:
            print(
                f"error: the spawn-mode crash+restart scenario needs"
                f" n >= 2f+2 (restarted replicas lose their state);"
                f" got n={n}, f={f}. Use -n {2 * f + 2} or"
                " --scenario none",
                file=sys.stderr,
            )
            return 2
    config = _shard_service_config(args)
    transports = None
    procs = {}
    ports_by_server = {}
    service = None
    try:
        # Spawning and construction sit inside the ``try``: a serve
        # process that never announces, or a constructor that raises,
        # must not leave the already started processes running.
        if args.transport in ("asyncio", "spawn"):
            from repro.net.asyncio_transport import AsyncioTransport

            if args.transport == "spawn":
                for server_index in range(n):
                    proc, announced = _spawn_shard_node(args, server_index)
                    procs[server_index] = proc
                    ports_by_server[server_index] = {
                        shard: port for shard, (_, port) in announced.items()
                    }
                transports = [
                    AsyncioTransport(
                        addresses=tuple(
                            f"127.0.0.1:{ports_by_server[i][shard_index]}"
                            for i in range(n)
                        ),
                        idle_timeout=args.idle_timeout,
                    )
                    for shard_index in range(args.shards)
                ]
            else:
                transports = [
                    AsyncioTransport(idle_timeout=args.idle_timeout)
                    for _ in range(args.shards)
                ]
        service = ShardedKVService(config, transports=transports)
        scenarios = _loadgen_scenarios(args, service, procs, ports_by_server)
        report = run_loadgen(
            service,
            clock=time.perf_counter,
            sleep=time.sleep,
            rate=args.rate,
            duration=args.duration,
            sessions=args.sessions,
            keys=args.keys,
            zipf_s=args.zipf,
            read_fraction=args.read_fraction,
            seed=args.seed if args.seed is not None else 0,
            scenarios=scenarios,
            drain_timeout=args.drain_timeout,
        )
    finally:
        if service is not None:
            service.close()
        for proc in procs.values():
            if proc.poll() is None:
                proc.terminate()
                proc.wait()
    report["transport"] = args.transport
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload)
    print(
        f"loadgen: {report['completed_ops']}/{report['offered_ops']} ops"
        f" ({report['throughput_ops_s']} ops/s),"
        f" p50={report['latency_ms']['p50']}ms"
        f" p99={report['latency_ms']['p99']}ms,"
        f" audit {report['audit']['ok']}/{report['audit']['keys']} ok",
        file=sys.stderr,
    )
    ok = (
        report["audit"]["all_ok"]
        and report["sustained_fraction"] >= args.min_sustained
    )
    return 0 if ok else 1


def _queue_backend(args):
    from repro.exec.queue import SqliteQueue

    return SqliteQueue(args.db)


def _import_modules(args) -> None:
    """Import extension modules that register extra experiments."""
    import importlib

    for module in getattr(args, "import_module", None) or ():
        importlib.import_module(module)


def cmd_queue_create(args) -> int:
    import json
    import time

    from repro.exec.queue import enqueue_cells
    from repro.experiments import list_experiments

    _import_modules(args)
    if args.all:
        ids = list_experiments()
    elif args.ids:
        ids = args.ids
    else:
        print(
            "error: name experiment ids to enqueue (or pass --all)",
            file=sys.stderr,
        )
        return 2
    overrides = json.loads(args.params) if args.params else {}
    if args.seeds:
        seeds: "List[Optional[int]]" = [
            int(part) for part in args.seeds.split(",") if part.strip()
        ]
    else:
        seeds = [args.seed]
    cells = []
    for experiment_id in ids:
        for seed in seeds:
            cells.extend(
                expand_experiment(experiment_id, dict(overrides), seed=seed)
            )
    backend = _queue_backend(args)
    try:
        added = enqueue_cells(backend, cells)
        status = backend.status(time.time(), args.ttl)
    finally:
        backend.close()
    print(
        f"queue {args.db}: enqueued {added} new cell(s),"
        f" {len(cells) - added} already present"
    )
    print(status.summary())
    return 0


def cmd_queue_work(args) -> int:
    from repro.exec.queue import QueueWorker

    _import_modules(args)
    backend = _queue_backend(args)
    try:
        worker = QueueWorker(
            backend,
            worker_id=args.worker_id,
            ttl=args.ttl,
            check_version=not args.no_version_check,
            progress=_progress,
        )
        report = worker.run(max_cells=args.max_cells)
    finally:
        backend.close()
    return 1 if report.failed else 0


def cmd_queue_status(args) -> int:
    import json
    import time

    backend = _queue_backend(args)
    try:
        status = backend.status(time.time(), args.ttl)
        rows = backend.rows() if args.json else []
    finally:
        backend.close()
    if args.json:
        payload = {
            "counts": status.counts,
            "stale": status.stale,
            "experiments": status.experiments,
            "cells": [
                {
                    "cell_id": row.cell_id,
                    "index": row.index,
                    "experiment_id": row.experiment_id,
                    "seed": row.seed,
                    "status": row.status,
                    "owner": row.owner,
                    "attempts": row.attempts,
                    "steps": row.steps,
                    "elapsed": row.elapsed,
                    "error": row.error,
                }
                for row in rows
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(status.summary())
    return 0


def cmd_queue_reset(args) -> int:
    import time

    if not (args.stale or args.failed or args.cell):
        print(
            "error: pick what to reopen: --stale, --failed and/or"
            " --cell ID",
            file=sys.stderr,
        )
        return 2
    backend = _queue_backend(args)
    try:
        reopened = backend.reset(
            stale_before=(time.time() - args.ttl) if args.stale else None,
            failed=args.failed,
            cell_ids=args.cell or None,
        )
    finally:
        backend.close()
    print(f"reopened {len(reopened)} cell(s)")
    for cell_id in reopened:
        print(f"  {cell_id}")
    return 0


def cmd_queue_export(args) -> int:
    from repro.exec.queue import export_queue

    backend = _queue_backend(args)
    try:
        rendered = export_queue(
            backend, fmt=args.export, partial=args.partial
        )
    finally:
        backend.close()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered)
    return 0


def _add_queue_db(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db",
        required=True,
        metavar="PATH",
        help="the shared queue file (any path every worker can reach)",
    )


def _add_queue_ttl(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="heartbeat time-to-live: claims not renewed for this long"
        " count as stale (default: 30)",
    )


def _add_import_module(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--import-module",
        action="append",
        metavar="MODULE",
        help="import MODULE first (registers extra experiments;"
        " repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Space Complexity of Fault-Tolerant Register Emulations"
            " (Chockler & Spiegelman, PODC 2017) — reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="Table 1 row for (k, n, f)")
    _add_knf(p_bounds)
    p_bounds.set_defaults(fn=cmd_bounds)

    p_layout = sub.add_parser("layout", help="Figure 1 register layout")
    _add_knf(p_layout)
    p_layout.set_defaults(fn=cmd_layout)

    p_sweep = sub.add_parser(
        "sweep", help="register bounds vs n, measured (Theorem 1 grid)"
    )
    _add_knf(p_sweep, need_n=False)
    _add_seed(p_sweep)
    _add_engine_flags(p_sweep)
    _add_export_flag(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_lemma1 = sub.add_parser("lemma1", help="run the covering adversary")
    _add_knf(p_lemma1)
    _add_seed(p_lemma1)
    p_lemma1.set_defaults(fn=cmd_lemma1)

    p_ablate = sub.add_parser(
        "ablate", help="break Algorithm 2's mechanisms and show violations"
    )
    _add_engine_flags(p_ablate)
    p_ablate.set_defaults(fn=cmd_ablate)

    p_th5 = sub.add_parser(
        "theorem5", help="split-brain demonstration on 2f servers"
    )
    p_th5.add_argument("-f", type=int, default=1, help="failure threshold")
    p_th5.set_defaults(fn=cmd_theorem5)

    p_exp = sub.add_parser(
        "experiment", help="regenerate a paper table/figure by id"
    )
    p_exp.add_argument("id", nargs="?", help="experiment id (e.g. T1, L1)")
    p_exp.add_argument(
        "--list", action="store_true", help="list experiment ids"
    )
    p_exp.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    p_exp.add_argument(
        "--json", metavar="PATH", help="write results as JSON to PATH"
    )
    _add_seed(p_exp)
    _add_engine_flags(p_exp)
    _add_export_flag(p_exp)
    p_exp.set_defaults(fn=cmd_experiment)

    p_lint = sub.add_parser(
        "lint", help="simulation-discipline static analysis (R001-R010)"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--json",
        metavar="PATH",
        help='write the JSON findings report to PATH ("-" for stdout)',
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format on stdout (sarif = SARIF 2.1.0 for CI"
        " annotations)",
    )
    p_lint.add_argument(
        "--explain",
        metavar="RULE",
        help="print one rule's rationale and fix guidance (e.g. R010)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    p_lint.add_argument(
        "--verbose",
        action="store_true",
        help="also show suppressed findings",
    )
    p_lint.set_defaults(fn=cmd_lint)

    p_demo = sub.add_parser("demo", help="quick write/read/crash demo")
    _add_seed(p_demo, default=0)
    p_demo.set_defaults(fn=cmd_demo)

    p_cluster = sub.add_parser(
        "cluster",
        help="run an emulation over real localhost sockets (asyncio)",
    )
    p_cluster.add_argument(
        "--algorithm",
        default="abd",
        choices=algorithm_names(),
        help="registry algorithm to run (default: abd)",
    )
    p_cluster.add_argument("-k", type=int, default=None, help="writers")
    p_cluster.add_argument("-n", type=int, default=None, help="servers")
    p_cluster.add_argument(
        "-f", type=int, default=None, help="failure threshold"
    )
    p_cluster.add_argument(
        "--rounds", type=int, default=2, help="write/read rounds (default: 2)"
    )
    p_cluster.add_argument(
        "--address",
        action="append",
        default=[],
        metavar="HOST:PORT",
        help="connect to an external `repro serve` process for the next"
        " server index (repeat to cover every server — all or none;"
        " default: self-host every server)",
    )
    p_cluster.add_argument(
        "--demo",
        action="store_true",
        help="self-hosted ABD n=3 f=1 demo (overrides the other flags)",
    )
    _add_seed(p_cluster, default=0)
    p_cluster.set_defaults(fn=cmd_cluster)

    p_serve = sub.add_parser(
        "serve", help="host one sim server's replicas for `repro cluster`"
    )
    p_serve.add_argument(
        "--algorithm",
        default="abd",
        choices=algorithm_names(),
        help="registry algorithm whose layout to serve (default: abd)",
    )
    p_serve.add_argument("-k", type=int, default=None, help="writers")
    p_serve.add_argument("-n", type=int, default=None, help="servers")
    p_serve.add_argument(
        "-f", type=int, default=None, help="failure threshold"
    )
    p_serve.add_argument(
        "--server",
        type=int,
        default=0,
        metavar="INDEX",
        help="which sim server's replicas to host (default: 0)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind host (default: 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=0, help="bind port (default: ephemeral)"
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="S",
        help="serve one node of an S-shard KV service instead of a"
        " single-fleet algorithm layout (one listener per shard;"
        " pairs with `repro loadgen`)",
    )
    p_serve.add_argument(
        "--substrate",
        default="max-register",
        choices=("register", "max-register", "cas"),
        help="shard substrate for --shards mode (default: max-register)",
    )
    p_serve.add_argument(
        "--capacity",
        type=int,
        default=8,
        metavar="SLOTS",
        help="register slots per shard in --shards mode (default: 8)",
    )
    p_serve.add_argument(
        "--ports",
        default=None,
        metavar="P0,P1,...",
        help="pin the per-shard listener ports in --shards mode (used"
        " when restarting a node on the ports its clients redial)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="open-loop Zipfian load against a sharded KV service",
    )
    p_loadgen.add_argument(
        "--shards", type=int, default=3, help="shard count (default: 3)"
    )
    p_loadgen.add_argument(
        "--substrate",
        default="max-register",
        choices=("register", "max-register", "cas"),
        help="shard substrate (default: max-register)",
    )
    p_loadgen.add_argument("-k", type=int, default=None, help="writer bound")
    p_loadgen.add_argument(
        "-n", type=int, default=None, help="servers per shard (default: 3)"
    )
    p_loadgen.add_argument(
        "-f", type=int, default=None, help="failure threshold (default: 1)"
    )
    p_loadgen.add_argument(
        "--capacity",
        type=int,
        default=32,
        help="register slots per shard (default: 32)",
    )
    p_loadgen.add_argument(
        "--rate",
        type=float,
        default=500.0,
        help="offered arrival rate, ops/s (default: 500)",
    )
    p_loadgen.add_argument(
        "--duration",
        type=float,
        default=5.0,
        help="traffic window, seconds (default: 5)",
    )
    p_loadgen.add_argument(
        "--sessions",
        type=int,
        default=1000,
        help="concurrent client sessions (default: 1000)",
    )
    p_loadgen.add_argument(
        "--keys",
        type=int,
        default=64,
        help="key universe size (default: 64; keep <= shards*capacity)",
    )
    p_loadgen.add_argument(
        "--zipf",
        type=float,
        default=1.1,
        help="Zipf popularity exponent (default: 1.1)",
    )
    p_loadgen.add_argument(
        "--read-fraction",
        type=float,
        default=0.7,
        help="fraction of operations that are reads (default: 0.7)",
    )
    p_loadgen.add_argument(
        "--transport",
        default="sim",
        choices=("sim", "asyncio", "spawn"),
        help="sim: in-process kernels; asyncio: self-hosted localhost"
        " sockets; spawn: real `repro serve` subprocesses, one per"
        " server (default: sim)",
    )
    p_loadgen.add_argument(
        "--scenario",
        default="none",
        choices=("none", "gauntlet"),
        help="gauntlet: partition+heal then replica crash+restart"
        " mid-traffic (default: none)",
    )
    p_loadgen.add_argument(
        "--idle-timeout",
        type=float,
        default=0.02,
        help="socket-transport idle wait per step, seconds (default: 0.02)",
    )
    p_loadgen.add_argument(
        "--drain-timeout",
        type=float,
        default=15.0,
        help="post-traffic completion drain bound, seconds (default: 15)",
    )
    p_loadgen.add_argument(
        "--min-sustained",
        type=float,
        default=0.99,
        help="fail (exit 1) if completed/offered falls below this"
        " (default: 0.99)",
    )
    p_loadgen.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON report here instead of stdout",
    )
    _add_seed(p_loadgen, default=0)
    p_loadgen.set_defaults(fn=cmd_loadgen)

    p_queue = sub.add_parser(
        "queue",
        help="distributed experiment queue over a shared table",
    )
    queue_sub = p_queue.add_subparsers(dest="queue_command", required=True)

    q_create = queue_sub.add_parser(
        "create", help="enqueue experiment grids into the shared table"
    )
    _add_queue_db(q_create)
    q_create.add_argument(
        "ids",
        nargs="*",
        metavar="ID",
        help="experiment ids to enqueue (e.g. T1 TH1)",
    )
    q_create.add_argument(
        "--all", action="store_true", help="enqueue every experiment"
    )
    _add_seed(q_create)
    q_create.add_argument(
        "--seeds",
        metavar="A,B,C",
        help="enqueue one replicate grid per seed (overrides --seed)",
    )
    q_create.add_argument(
        "--params",
        metavar="JSON",
        help='kwargs overrides as a JSON object (e.g. \'{"k": 3}\')',
    )
    _add_queue_ttl(q_create)
    _add_import_module(q_create)
    q_create.set_defaults(fn=cmd_queue_create)

    q_work = queue_sub.add_parser(
        "work", help="claim/execute/write-back until no OPEN cells remain"
    )
    _add_queue_db(q_work)
    q_work.add_argument(
        "--worker-id",
        metavar="ID",
        help="claim owner label (default: hostname-pid)",
    )
    q_work.add_argument(
        "--max-cells",
        type=int,
        metavar="N",
        help="stop after claiming N cells (default: drain the queue)",
    )
    _add_queue_ttl(q_work)
    q_work.add_argument(
        "--no-version-check",
        action="store_true",
        help="execute cells enqueued under a different code fingerprint",
    )
    _add_import_module(q_work)
    q_work.set_defaults(fn=cmd_queue_work)

    q_status = queue_sub.add_parser(
        "status", help="aggregate counts (and per-cell detail with --json)"
    )
    _add_queue_db(q_status)
    q_status.add_argument(
        "--json",
        action="store_true",
        help="print the full per-cell table as JSON",
    )
    _add_queue_ttl(q_status)
    q_status.set_defaults(fn=cmd_queue_status)

    q_reset = queue_sub.add_parser(
        "reset", help="reopen stale claims, failed cells, or exact ids"
    )
    _add_queue_db(q_reset)
    q_reset.add_argument(
        "--stale",
        action="store_true",
        help="reopen claimed cells whose heartbeat exceeded --ttl",
    )
    q_reset.add_argument(
        "--failed", action="store_true", help="reopen failed cells"
    )
    q_reset.add_argument(
        "--cell",
        action="append",
        metavar="CELL_ID",
        help="reopen this exact cell id (repeatable)",
    )
    _add_queue_ttl(q_reset)
    q_reset.set_defaults(fn=cmd_queue_reset)

    q_export = queue_sub.add_parser(
        "export", help="render the finished table(s) from the queue"
    )
    _add_queue_db(q_export)
    _add_export_flag(q_export)
    q_export.add_argument(
        "--partial",
        action="store_true",
        help="export even while cells are still open or claimed",
    )
    q_export.add_argument(
        "--out",
        metavar="PATH",
        help="write to PATH instead of stdout",
    )
    q_export.set_defaults(fn=cmd_queue_export)

    return parser


def exit_code_for(error) -> int:
    """Distinct exit code per typed failure (see :mod:`repro.errors`).

    Scripts driving ``repro cluster``/``serve``/``loadgen`` can branch
    on the class of failure without parsing stderr.  The code is the
    error class's ``exit_code``; anything else exits 2.
    """
    from repro.errors import ReproError

    return error.exit_code if isinstance(error, ReproError) else 2


def main(argv: "Optional[List[str]]" = None) -> int:
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return exit_code_for(error)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
