"""The four workloads: how an epoch of each is built, driven and checked.

An epoch is a fresh service (or emulation) seeded ``(seed, workload,
epoch)`` that goes through ``setup -> unloaded -> sat -> load -> audit``.
The stack is driven only through public calls; everything timed happens
inside :meth:`~benchmarks.e2e.timing.Normaliser.measure` slices of a
fixed number of operations.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from benchmarks.e2e import inputs
from benchmarks.e2e.inputs import GET, KVOp, RegisterOp
from benchmarks.e2e.spans import TracedCodec, Tracer
from benchmarks.e2e.timing import (
    Chunk,
    Normaliser,
    ScaledClock,
    run_open_loop,
    scale_samples,
    total_seconds,
)

from repro.apps.shard import (
    ShardConfig,
    ShardedKVService,
    ShardRouter,
    ShardServiceConfig,
)
from repro.consistency.ws import check_ws_regular
from repro.core import bounds
from repro.core.ws_register import WSRegisterEmulation
from repro.errors import ReproError
from repro.net.asyncio_transport import AsyncioTransport
from repro.net.faults import (
    Delay,
    Drop,
    Duplicate,
    FaultPlan,
    LinkFaults,
    Partition,
    Reorder,
)
from repro.net.lossy import LossyTransport
from repro.net.wire import get_codec
from repro.sim.history import History
from repro.sim.scheduling import RandomScheduler

N_SERVERS = 4
F_FAULTS = 1
SAT_DEPTH = 32
#: kernel steps per shard per ``service.step`` call in ``sat``: small
#: enough that the window stays full, large enough to amortise the call.
SAT_STEP_BUDGET = 256
#: ``run_loadgen``'s own step budget, used by the open loop.
LOAD_STEP_BUDGET = 4_000
#: consecutive pumps with no step and no completion before a closed loop
#: gives up on what is still in flight
STALL_PUMPS = 3


class Sizes(NamedTuple):
    """Operations per slice and slices per phase of one epoch."""

    warm: int
    unloaded: int
    unloaded_slices: int
    sat: int
    sat_slices: int
    load_rate: float
    load_slice_s: float
    load_slices: int

    def traced(self) -> "Sizes":
        """A traced epoch: the same phases, one slice each."""
        return self._replace(unloaded_slices=1, sat_slices=1, load_slices=1)

    def smoke(self) -> "Sizes":
        return Sizes(
            warm=max(8, self.warm // 10),
            unloaded=max(20, self.unloaded // 10),
            unloaded_slices=1,
            sat=max(8, self.sat // 10),
            sat_slices=1,
            load_rate=self.load_rate,
            load_slice_s=self.load_slice_s / 10,
            load_slices=1,
        )


class Samples:
    """Everything measured in the epochs of one kind (untraced or traced)."""

    def __init__(self) -> None:
        self.setup_s: "List[float]" = []
        self.build_ms: "List[float]" = []
        self.preload_ms: "List[float]" = []
        self.unloaded_ms: "List[Tuple[str, float]]" = []
        self.sat_rates: "List[float]" = []
        self.sat_raw_rates: "List[float]" = []
        #: raw and reference seconds inside the sat chunks: the traced run's
        #: denominator, and the factor its spans' raw times are scaled by
        self.sat_raw_s = 0.0
        self.sat_s = 0.0
        self.sat_latency_ms: "List[float]" = []
        self.load_latency_ms: "List[float]" = []
        self.load_late_ms: "List[float]" = []
        self.load_idle_frac: "List[float]" = []
        self.attempted = 0
        self.failed = 0
        self.audits_ok = 0
        self.audits = 0
        self.audit_s = 0.0
        self.audited_ops = 0
        self.max_history = 0
        self.hottest_key = 0
        #: static facts of the deployment (same every epoch)
        self.facts: "Dict[str, float]" = {}
        #: per epoch: the counts of its closed-loop phases (exact on
        #: simulated workloads)
        self.epoch_counts: "List[Dict[str, int]]" = []
        self.failures: "List[str]" = []

    def total_counts(self) -> "Dict[str, int]":
        total: "Dict[str, int]" = {}
        for counts in self.epoch_counts:
            for name, value in counts.items():
                total[name] = total.get(name, 0) + value
        return total


Done = Callable[[int], None]


def measure_slice(norm: Normaliser, tracer: "Optional[Tracer]", body):
    """``norm.measure(body)``, with a ``slice`` span around the body when
    tracing."""
    if tracer is None:
        return norm.measure(body)

    def traced(done: Done):
        span = tracer.begin("slice")
        try:
            return body(done)
        finally:
            tracer.end(span)

    return norm.measure(traced)


def record_rates(out: "Samples", chunks: "Sequence[Chunk]") -> None:
    """``sat``'s sample for one slice: operations over reference seconds.

    The sum over the slice's chunks, not a statistic of per-chunk rates:
    completions arrive in bursts, so a 15 ms chunk's own rate says little,
    while each chunk's *seconds* are already corrected for the host.
    """
    units = sum(chunk.units for chunk in chunks)
    raw = sum(chunk.raw_s for chunk in chunks)
    seconds = total_seconds(chunks)
    out.sat_rates.append(units / seconds)
    out.sat_raw_rates.append(units / raw)
    out.sat_raw_s += raw
    out.sat_s += seconds


def record_setup(
    out: "Samples", chunks: "Sequence[Chunk]", built_raw_s: float
) -> None:
    """``setup_s``, split into construction and everything after it."""
    seconds = total_seconds(chunks)
    built = built_raw_s * chunks[0].factor  # construction opens the window
    out.setup_s.append(seconds)
    out.build_ms.append(built * 1e3)
    out.preload_ms.append((seconds - built) * 1e3)


def mean_factor(chunks: "Sequence[Chunk]") -> float:
    return total_seconds(chunks) / sum(chunk.raw_s for chunk in chunks)


# -- the KV workloads ---------------------------------------------------------


class _KVEpoch:
    """One built service and the bookkeeping of the operations sent to it."""

    def __init__(self, service: ShardedKVService, tracer: "Optional[Tracer]"):
        self.service = service
        self.tracer = tracer
        self.sessions = [
            service.session(writer=index) for index in range(inputs.SESSIONS)
        ]
        self.attempted = 0
        self.refused = 0
        self.unfinished = 0
        #: (key, value read) of every completed get, checked after timing
        self.reads: "List[Tuple[str, Any]]" = []
        #: (slice's ops, drained completions) of the async phases
        self._drained: "List[Tuple[Sequence[KVOp], list]]" = []

    # -- synchronous: one operation in flight --------------------------------

    def sync_slice(self, ops: "Sequence[KVOp]", done: Done) -> "List[float]":
        sessions, reads, tracer = self.sessions, self.reads, self.tracer
        latencies = []
        clock = time.perf_counter
        for index, op in enumerate(ops):
            session = sessions[op.session]
            span = tracer.begin("op", index) if tracer is not None else None
            start = clock()
            try:
                if op.kind == GET:
                    reads.append((op.key, session.get(op.key)))
                else:
                    session.put(op.key, op.value)
            except ReproError:
                self.refused += 1
            latencies.append(clock() - start)
            if span is not None:
                tracer.end(span)
            done(1)
        self.attempted += len(ops)
        return latencies

    # -- asynchronous: submit / step / drain -----------------------------------

    def _submit(self, op: KVOp, token: int) -> bool:
        session = self.sessions[op.session]
        try:
            if op.kind == GET:
                session.submit_get(op.key, token=token)
            else:
                session.submit_put(op.key, op.value, token=token)
        except ReproError:
            self.refused += 1
            return False
        return True

    def _pump(self, budget: int) -> "Tuple[int, list]":
        tracer = self.tracer
        if tracer is None:
            steps = self.service.step(max_steps_per_shard=budget)
            return steps, self.service.drain_completions()
        span = tracer.begin("step")
        steps = self.service.step(max_steps_per_shard=budget)
        tracer.end(span)
        span = tracer.begin("drain")
        done = self.service.drain_completions()
        tracer.end(span)
        return steps, done

    def closed_slice(
        self,
        ops: "Sequence[KVOp]",
        done: Done,
        stamps: "Optional[List[float]]" = None,
    ) -> int:
        """``SAT_DEPTH`` operations in flight until all of ``ops`` are done;
        returns the number of step calls.  With ``stamps`` (traced runs) the
        service stamps completions and ``stamps`` receives each operation's
        submit-to-completion seconds."""
        total = len(ops)
        submitted = completed = calls = stalled = 0
        drained: list = []
        started: "Dict[int, float]" = {}
        clock = time.perf_counter
        if stamps is not None:
            self.service.set_completion_clock(clock)
        while completed < total and stalled < STALL_PUMPS:
            while submitted < total and submitted - completed < SAT_DEPTH:
                if stamps is not None:
                    started[submitted] = clock()
                if not self._submit(ops[submitted], submitted):
                    completed += 1
                submitted += 1
            stepped, finished = self._pump(SAT_STEP_BUDGET)
            calls += 1
            completed += len(finished)
            drained.extend(finished)
            stalled = 0 if (stepped or finished) else stalled + 1
            done(len(finished))
        if stamps is not None:
            self.service.set_completion_clock(None)
            stamps.extend(stamp - started[token] for token, _, _, stamp in drained)
        self.attempted += total
        self.unfinished += total - completed
        self._drained.append((ops, drained))
        return calls

    def open_slice(
        self, due: "Sequence[float]", ops: "Sequence[KVOp]", clock: ScaledClock
    ):
        drained: list = []

        def pump():
            _, done = self._pump(LOAD_STEP_BUDGET)
            drained.extend(done)
            return [(token, stamp) for token, _, _, stamp in done]

        self.service.set_completion_clock(clock)
        try:
            result = run_open_loop(
                due, clock, lambda index: self._submit(ops[index], index), pump
            )
        finally:
            self.service.set_completion_clock(None)
        self.attempted += len(ops)
        self.unfinished += result.unfinished
        self._drained.append((ops, drained))
        return result

    # -- after timing ----------------------------------------------------------

    def wrong_reads(self) -> int:
        """Gets whose result was never written to their key."""
        for ops, drained in self._drained:
            for token, name, result, _ in drained:
                if name == "read":
                    self.reads.append((ops[token].key, result))
        self._drained.clear()
        wrong = sum(
            1
            for key, value in self.reads
            if not inputs.value_belongs_to(key, value)
        )
        self.reads.clear()
        return wrong

    def kernel_counts(self) -> "Dict[str, int]":
        fleets = self.service.fleets
        counts = {
            "steps": sum(fleet.kernel.time for fleet in fleets),
            "lowlevel": sum(len(fleet.kernel.ops) for fleet in fleets),
            "frames": 0,
        }
        for fleet in fleets:
            transport = fleet.transport
            if isinstance(transport, LossyTransport):
                for name, value in transport.stats().items():
                    counts[name] = counts.get(name, 0) + value
            elif isinstance(transport, AsyncioTransport):
                # every served request came in one frame and left in one
                counts["frames"] += 2 * sum(
                    server.requests_served
                    for server in transport.servers.values()
                )
        return counts


class KVWorkload:
    """A sharded KV service under Zipf traffic (three of the workloads)."""

    def __init__(
        self,
        name: str,
        seed: int,
        substrate: str,
        shards: int,
        transport: str,
        read_fraction: float,
        sizes: Sizes,
    ):
        self.name = name
        self.seed = seed
        self.substrate = substrate
        self.shards = shards
        self.transport = transport
        self.read_fraction = read_fraction
        self.sizes = sizes
        router = ShardRouter(shards)
        #: capacity sized to hold every key: exactly the keys each shard owns
        self.keys_per_shard = [
            len(group) for group in router.partition_keys(inputs.key_names())
        ]

    # -- construction ------------------------------------------------------------

    def fault_plan(self, sizes: Sizes) -> FaultPlan:
        """Weather on every link, 20% drops on server 1, and a partition of
        server 3 that starts and heals inside each timed phase.

        Partitions are scheduled in kernel time, which only the run itself
        produces; the windows below place them from the phases' operation
        counts at a nominal number of kernel steps per operation.  Only
        server 1 ever loses a message and a held message is delivered when
        the partition heals, so three of the four servers always answer:
        no operation can fail, it can only take longer.
        """
        weather = dict(
            delay=Delay(0, 4),
            reorder=Reorder(0.3, window=10),
            duplicate=Duplicate(0.05),
        )
        ticks_per_op = 32.0 / self.shards  # nominal, CAS-ABD, per shard
        phases = [
            inputs.KEYS + sizes.warm,
            sizes.unloaded * sizes.unloaded_slices,
            sizes.sat * sizes.sat_slices,
            int(sizes.load_rate * sizes.load_slice_s) * sizes.load_slices,
        ]
        partitions = []
        begin = phases[0]
        for length in phases[1:]:
            partitions.append(
                Partition(
                    int((begin + 0.35 * length) * ticks_per_op),
                    int((begin + 0.55 * length) * ticks_per_op) + 1,
                    (3,),
                )
            )
            begin += length
        return FaultPlan(
            default=LinkFaults(**weather),
            per_server=((1, LinkFaults(drop=Drop(0.2), **weather)),),
            partitions=tuple(partitions),
        )

    def _transports(self, epoch_seed: int, sizes: Sizes, tracer):
        if self.transport == "inproc":
            return None
        if self.transport == "lossy":
            plan = self.fault_plan(sizes)
            return [
                LossyTransport(plan, seed=epoch_seed * 8 + shard)
                for shard in range(self.shards)
            ]
        codec: Any = "binary"
        if tracer is not None:
            codec = TracedCodec(get_codec("binary"), tracer)
        return [
            AsyncioTransport(codec=codec, idle_timeout=1.0)
            for _ in range(self.shards)
        ]

    def build(self, epoch_seed: int, sizes: Sizes, tracer=None) -> ShardedKVService:
        config = ShardServiceConfig(
            shards=tuple(
                ShardConfig(
                    substrate=self.substrate,
                    n=N_SERVERS,
                    f=F_FAULTS,
                    capacity=capacity,
                )
                for capacity in self.keys_per_shard
            ),
            seed=epoch_seed,
        )
        service = ShardedKVService(
            config, transports=self._transports(epoch_seed, sizes, tracer)
        )
        if tracer is not None:
            tracer.wrap(service, "submit", "submit")
            for fleet in service.fleets:
                tracer.wrap(fleet, "run_to_quiescence", "run_to_quiescence")
                transport = fleet.transport
                if transport.active:
                    for hook in (
                        "send_request",
                        "send_response",
                        "pump",
                        "flush_idle",
                    ):
                        tracer.wrap(transport, hook, hook)
        return service

    # -- one epoch ----------------------------------------------------------------

    def run_epoch(
        self,
        epoch: int,
        norm: Normaliser,
        out: Samples,
        sizes: Sizes,
        tracer: "Optional[Tracer]" = None,
    ) -> None:
        seed, name, reads = self.seed, self.name, self.read_fraction

        def ops(phase: str, count: int) -> "List[KVOp]":
            return inputs.kv_ops(seed, name, phase, epoch, count, reads)

        preload = inputs.preload_ops()
        warm = ops("warm", sizes.warm)
        unloaded = [
            ops(f"unloaded{i}", sizes.unloaded)
            for i in range(sizes.unloaded_slices)
        ]
        sat = [ops(f"sat{i}", sizes.sat) for i in range(sizes.sat_slices)]
        load_due = [
            inputs.poisson_arrivals(
                seed, name, f"load{i}", epoch, sizes.load_rate, sizes.load_slice_s
            )
            for i in range(sizes.load_slices)
        ]
        load = [
            ops(f"load{i}.ops", len(due)) for i, due in enumerate(load_due)
        ]
        out.hottest_key = max(
            out.hottest_key,
            inputs.check_hot_key([preload, warm, *unloaded, *sat, *load]),
        )
        epoch_seed = inputs.epoch_seed(seed, name, epoch)
        marks: "Dict[str, float]" = {}

        def set_up(done: Done) -> _KVEpoch:
            start = time.perf_counter()
            run = _KVEpoch(self.build(epoch_seed, sizes, tracer), tracer)
            marks["built"] = time.perf_counter() - start
            run.sync_slice(preload, done)
            run.sync_slice(warm, done)
            return run

        if tracer is not None:
            tracer.phase = "setup"
        run, setup = norm.measure(set_up)
        service = run.service
        try:
            record_setup(out, setup, marks["built"])
            before = run.kernel_counts()
            closed_ops = 0
            step_calls = 0

            if tracer is not None:
                tracer.phase = "unloaded"
            for slice_ops in unloaded:
                latencies, chunks = measure_slice(
                    norm, tracer, lambda done: run.sync_slice(slice_ops, done)
                )
                out.unloaded_ms.extend(
                    (op.kind, seconds * 1e3)
                    for op, seconds in zip(
                        slice_ops, scale_samples(latencies, chunks)
                    )
                )
                closed_ops += len(slice_ops)

            if tracer is not None:
                tracer.phase = "sat"
            for slice_ops in sat:
                stamps: "Optional[List[float]]" = (
                    [] if tracer is not None else None
                )
                calls, chunks = measure_slice(
                    norm,
                    tracer,
                    lambda done: run.closed_slice(slice_ops, done, stamps),
                )
                record_rates(out, chunks)
                if stamps:
                    factor = mean_factor(chunks)
                    out.sat_latency_ms.extend(s * factor * 1e3 for s in stamps)
                closed_ops += len(slice_ops)
                step_calls += calls

            after = run.kernel_counts()
            counts = {
                key: after[key] - before.get(key, 0) for key in after
            }
            counts["ops"] = closed_ops
            counts["sat_ops"] = sum(len(s) for s in sat)
            counts["step_calls"] = step_calls
            out.epoch_counts.append(counts)

            if tracer is not None:
                tracer.phase = "load"
            for due, slice_ops in zip(load_due, load):
                clock = norm.scaled_clock()
                span = tracer.begin("slice") if tracer is not None else None
                result = run.open_slice(due, slice_ops, clock)
                if span is not None:
                    tracer.end(span)
                out.load_latency_ms.extend(s * 1e3 for s in result.latencies_s)
                out.load_late_ms.extend(s * 1e3 for s in result.lateness_s)
                out.load_idle_frac.append(result.idle_frac)

            if tracer is not None:
                tracer.phase = "audit"
            span = tracer.begin("audit") if tracer is not None else None
            start = time.perf_counter()
            audits = service.audit()
            out.audit_s += time.perf_counter() - start
            if span is not None:
                tracer.end(span)
            out.audits += len(audits)
            out.audits_ok += sum(1 for ok in audits.values() if ok)
            histories = [
                len(slot.history)
                for fleet in service.fleets
                for slot in fleet.slots
            ]
            out.audited_ops += sum(histories)
            out.max_history = max(out.max_history, max(histories))
            wrong = run.wrong_reads()
            out.attempted += run.attempted
            out.failed += run.refused + run.unfinished + wrong
            if run.refused or run.unfinished or wrong:
                out.failures.append(
                    f"epoch {epoch}: {run.refused} refused,"
                    f" {run.unfinished} unfinished, {wrong} wrong reads"
                )
            self._record_facts(service, out)
        finally:
            service.close()

    def _record_facts(self, service: ShardedKVService, out: Samples) -> None:
        objects = sum(fleet.total_objects for fleet in service.fleets)
        per_key = objects / inputs.KEYS
        # Table 1: a max-register or CAS emulation needs 2f + 1 objects and
        # this deployment keeps one per server, so exactly n, never fewer.
        if self.substrate == "max-register":
            floor = bounds.max_register_upper_bound(F_FAULTS)
        else:
            floor = bounds.cas_upper_bound(F_FAULTS)
        if per_key != N_SERVERS or per_key < floor:
            out.failures.append(
                f"base objects per key is {per_key}, expected n={N_SERVERS}"
                f" (Table 1 floor 2f+1={floor})"
            )
        mean = inputs.KEYS / self.shards
        out.facts = {
            "base_objects_per_key": per_key,
            "base_objects": objects,
            "clients": sum(len(fleet.kernel.clients) for fleet in service.fleets),
            "shard_imbalance": max(self.keys_per_shard) / mean,
            "dropped_frames": sum(
                getattr(fleet.transport, "dropped_frames", 0)
                for fleet in service.fleets
            ),
        }


# -- kernel_ws_medium -----------------------------------------------------------

WS_K, WS_N, WS_F = 5, 6, 2
WS_READERS = 3
WS_MAX_STEPS = 200_000


class _Window(NamedTuple):
    """A stretch of the run audited on its own: its history, and the value
    the register held when it began (the window's "initial value")."""

    history: History
    initial: Any


class _WSEpoch:
    def __init__(self, epoch_seed: int, tracer: "Optional[Tracer]"):
        self.tracer = tracer
        self.emulation = WSRegisterEmulation(
            WS_K, WS_N, WS_F, scheduler=RandomScheduler(epoch_seed)
        )
        self.kernel = self.emulation.kernel
        self.clients = [
            self.emulation.add_writer(index) for index in range(WS_K)
        ] + [self.emulation.add_reader() for _ in range(WS_READERS)]
        for client in self.clients:
            client.on_complete = self._completed
        self.clock: "Optional[Callable[[], float]]" = None
        self.done: "List[Tuple[Any, Any, Optional[float]]]" = []
        self.last_written: Any = None
        self.windows: "List[_Window]" = []
        self.attempted = 0
        self.unfinished = 0
        self.steps = 0
        self.run_calls = 0

    def _completed(self, token: Any, name: str, result: Any) -> None:
        clock = self.clock
        self.done.append((token, result, clock() if clock else None))

    def _idle(self, kernel) -> bool:
        for client in self.clients:
            if client.active_seq is not None or client.program:
                return False
        return True

    def run_round(self, ops: "Sequence[RegisterOp]", token_base: int) -> None:
        """Enqueue ``ops`` (one per client at most) and run them to the end
        through ``Kernel.run``, the path every sweep takes."""
        tracer, clients = self.tracer, self.clients
        written = None
        for offset, op in enumerate(ops):
            span = tracer.begin("submit", token_base + offset) if tracer else None
            if op.name == "write":
                clients[op.client].enqueue(
                    "write", op.value, token=token_base + offset
                )
                written = op.value
            else:
                clients[op.client].enqueue("read", token=token_base + offset)
            if span is not None:
                tracer.end(span)
        span = tracer.begin("run") if tracer else None
        result = self.kernel.run(max_steps=WS_MAX_STEPS, until=self._idle)
        if span is not None:
            tracer.end(span)
        self.steps += result.steps
        self.run_calls += 1
        self.attempted += len(ops)
        if not result.satisfied:
            self.unfinished += len(ops)
        elif written is not None:
            self.last_written = written

    def window(self, body: "Callable[[], Any]") -> Any:
        """Run ``body`` with a fresh history attached to the kernel, so the
        audit later checks this stretch on its own.  Rounds run to the end,
        so at a boundary every write has returned and the register's value
        is the last one written: a sound initial value for the window."""
        history = History()
        self.windows.append(_Window(history, self.last_written))
        self.kernel.add_listener(history)
        try:
            return body()
        finally:
            self.kernel.remove_listener(history)

    def rounds(
        self,
        plan: "Sequence[Sequence[RegisterOp]]",
        done: Done,
        started: "Optional[List[float]]" = None,
    ) -> None:
        """Run the rounds back to back; ``started`` (traced runs) receives
        each round's start time."""
        width = len(self.clients)
        for index, ops in enumerate(plan):
            if started is not None:
                started.append(time.perf_counter())
            self.run_round(ops, index * width)
            done(width)

    def singles(self, ops: "Sequence[RegisterOp]", done: Done) -> "List[float]":
        latencies = []
        clock = time.perf_counter
        for index, op in enumerate(ops):
            start = clock()
            self.run_round((op,), index)
            latencies.append(clock() - start)
            done(1)
        return latencies

    def open_rounds(
        self,
        due: "Sequence[float]",
        plan: "Sequence[Sequence[RegisterOp]]",
        clock: ScaledClock,
    ) -> "Tuple[List[float], List[float], float]":
        """Rounds arrive on a schedule and are served one at a time (a second
        concurrent round would make writes overlap); each operation's
        latency runs from its round's due time."""
        latencies: "List[float]" = []
        lateness: "List[float]" = []
        self.clock = clock
        self.done.clear()
        width = len(self.clients)
        for index, (when, ops) in enumerate(zip(due, plan)):
            now = clock()
            if now < when:
                clock.idle()
                clock.skip_to(when)
                now = when
            lateness.append(now - when)
            self.run_round(ops, index * width)
            latencies.extend(stamp - when for _, _, stamp in self.done)
            self.done.clear()
        self.clock = None
        end = clock()
        return latencies, lateness, clock.skipped / end if end > 0 else 0.0


class KernelWorkload:
    """Algorithm 2 at Figure 1's layout, round by round through Kernel.run."""

    transport = "inproc"

    def __init__(self, name: str, seed: int, sizes: Sizes):
        self.name = name
        self.seed = seed
        self.sizes = sizes

    def run_epoch(
        self,
        epoch: int,
        norm: Normaliser,
        out: Samples,
        sizes: Sizes,
        tracer: "Optional[Tracer]" = None,
    ) -> None:
        seed, name = self.seed, self.name
        shape = (WS_K, WS_READERS)
        width = WS_K + WS_READERS
        warm = inputs.ws_rounds(seed, name, "warm", epoch, sizes.warm, *shape)
        unloaded = [
            inputs.ws_singles(
                seed, name, f"unloaded{i}", epoch, sizes.unloaded, *shape
            )
            for i in range(sizes.unloaded_slices)
        ]
        sat = [
            inputs.ws_rounds(seed, name, f"sat{i}", epoch, sizes.sat, *shape)
            for i in range(sizes.sat_slices)
        ]
        load_due = [
            inputs.poisson_arrivals(
                seed, name, f"load{i}", epoch, sizes.load_rate, sizes.load_slice_s
            )
            for i in range(sizes.load_slices)
        ]
        load = [
            inputs.ws_rounds(
                seed, name, f"load{i}.ops", epoch, len(due), *shape
            )
            for i, due in enumerate(load_due)
        ]
        epoch_seed = inputs.epoch_seed(seed, name, epoch)
        marks: "Dict[str, float]" = {}

        def set_up(done: Done) -> _WSEpoch:
            start = time.perf_counter()
            run = _WSEpoch(epoch_seed, tracer)
            marks["built"] = time.perf_counter() - start
            run.window(lambda: run.rounds(warm, done))
            return run

        if tracer is not None:
            tracer.phase = "setup"
        run, setup = norm.measure(set_up)
        record_setup(out, setup, marks["built"])
        steps_before = run.steps
        lowlevel_before = len(run.kernel.ops)
        closed_ops = 0

        if tracer is not None:
            tracer.phase = "unloaded"
        for slice_ops in unloaded:
            latencies, chunks = measure_slice(
                norm,
                tracer,
                lambda done: run.window(lambda: run.singles(slice_ops, done)),
            )
            out.unloaded_ms.extend(
                ("put" if op.name == "write" else "get", seconds * 1e3)
                for op, seconds in zip(slice_ops, scale_samples(latencies, chunks))
            )
            closed_ops += len(slice_ops)

        if tracer is not None:
            tracer.phase = "sat"
        sat_calls = 0
        for plan in sat:
            # per-operation latency inside the rounds, traced runs only
            started: "Optional[List[float]]" = None
            if tracer is not None:
                started = []
                run.clock = time.perf_counter
            run.done.clear()
            calls_at = run.run_calls
            _, chunks = measure_slice(
                norm,
                tracer,
                lambda done: run.window(lambda: run.rounds(plan, done, started)),
            )
            run.clock = None
            operations = len(plan) * width
            record_rates(out, chunks)
            if started is not None:
                factor = mean_factor(chunks)
                out.sat_latency_ms.extend(
                    (stamp - started[token // width]) * factor * 1e3
                    for token, _, stamp in run.done
                )
            closed_ops += operations
            sat_calls += run.run_calls - calls_at

        out.epoch_counts.append(
            {
                "steps": run.steps - steps_before,
                "lowlevel": len(run.kernel.ops) - lowlevel_before,
                "frames": 0,
                "ops": closed_ops,
                "sat_ops": sum(len(plan) * width for plan in sat),
                "step_calls": sat_calls,
            }
        )

        if tracer is not None:
            tracer.phase = "load"
        for due, plan in zip(load_due, load):
            clock = norm.scaled_clock()
            span = tracer.begin("slice") if tracer is not None else None
            latencies, lateness, idle = run.window(
                lambda: run.open_rounds(due, plan, clock)
            )
            if span is not None:
                tracer.end(span)
            out.load_latency_ms.extend(s * 1e3 for s in latencies)
            out.load_late_ms.extend(s * 1e3 for s in lateness)
            out.load_idle_frac.append(idle)

        if tracer is not None:
            tracer.phase = "audit"
        span = tracer.begin("audit") if tracer is not None else None
        start = time.perf_counter()
        for window in run.windows:
            out.audits += 1
            # a schedule that is not write-sequential would make the check
            # vacuous: that is a harness bug, not a pass
            if window.history.is_write_sequential() and not check_ws_regular(
                window.history, initial_value=window.initial
            ):
                out.audits_ok += 1
            out.audited_ops += len(window.history)
            out.max_history = max(out.max_history, len(window.history))
        out.audit_s += time.perf_counter() - start
        if span is not None:
            tracer.end(span)

        out.attempted += run.attempted
        out.failed += run.unfinished
        if run.unfinished:
            out.failures.append(
                f"epoch {epoch}: {run.unfinished} operations did not finish"
            )
        registers = run.emulation.layout.total_registers
        if registers != bounds.register_upper_bound(
            WS_K, WS_N, WS_F
        ) or registers != run.emulation.object_map.n_objects:
            out.failures.append(
                f"{registers} base registers, Theorem 3 says"
                f" {bounds.register_upper_bound(WS_K, WS_N, WS_F)}"
            )
        out.facts = {
            "base_objects_per_key": float(registers),
            "base_objects": registers,
            "clients": len(run.kernel.clients),
            "shard_imbalance": 1.0,
            "dropped_frames": 0,
        }


# -- the registry -----------------------------------------------------------------

#: Sizes keep an epoch near ``spec.EPOCH_NOMINAL_S`` and the hottest key
#: (6.4% of the traffic at Zipf 0.6 over 128 keys) under 600 operations.
SIZES = {
    "kv_sim_read": Sizes(300, 300, 3, 1200, 3, 2000.0, 0.5, 4),
    "kv_sock_read": Sizes(200, 150, 2, 500, 2, 500.0, 0.5, 4),
    "kv_lossy_faults": Sizes(300, 200, 2, 400, 2, 420.0, 0.5, 4),
    # rounds of 8 operations; the load rate is in rounds per second
    "kernel_ws_medium": Sizes(100, 300, 3, 60, 4, 160.0, 0.5, 4),
}


def make_workload(name: str, seed: int, smoke: bool = False):
    sizes = SIZES[name].smoke() if smoke else SIZES[name]
    if name == "kv_sim_read":
        return KVWorkload(name, seed, "max-register", 3, "inproc", 0.9, sizes)
    if name == "kv_sock_read":
        return KVWorkload(name, seed, "max-register", 1, "asyncio", 0.9, sizes)
    if name == "kv_lossy_faults":
        return KVWorkload(name, seed, "cas", 3, "lossy", 0.5, sizes)
    if name == "kernel_ws_medium":
        return KernelWorkload(name, seed, sizes)
    raise ValueError(f"unknown workload {name!r}")
