"""Layer probes: small fixed-configuration measurements of single layers.

The traced run of *every* workload ends with the same probes, so each
per-layer metric has a value on each workload, including the layers a
workload bypasses (no codec on ``kv_sim_read``, no service on
``kernel_ws_medium``).  They answer "how fast is this layer by itself
right now", through public calls only, in reference-normalised time:

* the kernel's stepping loops on Figure 1's layout (dispatch ceiling,
  batched and plain protocol stepping);
* both wire codecs on the frames ABD's gets and puts send;
* one shard of the KV service in-process, over self-hosted sockets and
  over a fault-free ``LossyTransport`` (what a socket, or an idle fault
  injector, adds to one operation).
"""

from __future__ import annotations

import asyncio
from typing import Dict, List

from benchmarks.e2e import inputs
from benchmarks.e2e.timing import Normaliser, median, total_seconds
from benchmarks.e2e.workloads import KVWorkload, Samples, Sizes, WS_F, WS_K, WS_N, WS_READERS

from repro.core.layout import RegisterLayout
from repro.core.ws_register import WSRegisterEmulation
from repro.net.faults import FaultPlan
from repro.net.wire import get_codec
from repro.sim.client import ClientProtocol
from repro.sim.ids import ClientId, ObjectId, OpId
from repro.sim.objects import LowLevelOp, OpKind
from repro.sim.scheduling import RandomScheduler
from repro.sim.system import build_system
from repro.sim.values import TSVal

KERNEL_STEPS = 20_000
#: the probe runs in strides of this many steps, one reference chunk apart
STRIDE_STEPS = 2_000
PROBE_NAME = "probe"
#: the twin services: small, but the same shape as kv_sock_read
TWIN_SIZES = Sizes(40, 150, 1, 500, 1, 600.0, 0.5, 0)
FRAME_SAMPLE = 256
CODEC_REPEATS = 16


# -- sim.kernel / core ----------------------------------------------------------


class _Ping(ClientProtocol):
    """Minimal trigger/await protocol: one long-lived operation that writes
    one register and waits for the answer, again and again.  All of the
    kernel's per-step work (collect, choose, trigger, respond, deliver)
    and none of a protocol's."""

    def __init__(self, registers, rounds: int):
        self.registers = registers
        self.rounds = rounds
        self.answered = 0

    def op_ping(self, ctx):
        registers = self.registers
        answered = lambda: self.answered >= 1  # noqa: E731
        for index in range(1, self.rounds + 1):
            self.answered = 0
            ctx.trigger(
                registers[index % len(registers)],
                OpKind.WRITE,
                TSVal(ts=index, wid=0),
            )
            yield answered
        return "done"

    def on_response(self, ctx, op) -> None:
        self.answered += 1


def _deep_ws(seed: int):
    """Figure 1's layout with more operations queued than the probe runs."""
    emulation = WSRegisterEmulation(
        WS_K, WS_N, WS_F, scheduler=RandomScheduler(seed)
    )
    writers = [emulation.add_writer(index) for index in range(WS_K)]
    readers = [emulation.add_reader() for _ in range(WS_READERS)]
    for index in range(2 * KERNEL_STEPS // (WS_K + WS_READERS)):
        for writer in writers:
            writer.enqueue("write", index)
        for reader in readers:
            reader.enqueue("read")
    return emulation.kernel


def _deep_ping(seed: int):
    """The same register fleet under two ``_Ping`` clients."""
    layout = RegisterLayout(WS_K, WS_N, WS_F, initial_value=0)
    system = build_system(
        WS_N, layout.placements(), scheduler=RandomScheduler(seed)
    )
    for index in range(2):
        runtime = system.add_client(
            ClientId(index), _Ping(layout.all_registers, 2 * KERNEL_STEPS)
        )
        runtime.enqueue("ping")
    return system.kernel


def kernel_probes(norm: Normaliser, seed: int) -> "Dict[str, float]":
    def rate(kernel, batched: bool) -> float:
        def stride() -> int:
            if batched:
                result = kernel.run_batched(max_steps=STRIDE_STEPS, batch_size=64)
            else:
                result = kernel.run(max_steps=STRIDE_STEPS)
            return result.steps

        def body(done) -> int:
            steps = 0
            for _ in range(KERNEL_STEPS // STRIDE_STEPS):
                taken = stride()
                steps += taken
                done(taken)
            return steps

        stride()  # warm the loop
        steps, chunks = norm.measure(body)
        if steps != KERNEL_STEPS:
            raise RuntimeError(f"kernel probe ran {steps} of {KERNEL_STEPS} steps")
        return steps / total_seconds(chunks)

    dispatch = rate(_deep_ping(seed), batched=True)
    batched = rate(_deep_ws(seed), batched=True)
    plain = rate(_deep_ws(seed), batched=False)
    return {
        "sim.kernel.dispatch_steps_per_s": dispatch,
        "sim.kernel.batched_steps_per_s": batched,
        "sim.kernel.run_steps_per_s": plain,
        # what the protocol adds to a step, beyond dispatching it
        "core.us_per_step": (1.0 / batched - 1.0 / dispatch) * 1e6,
    }


# -- the twins: one shard in-process, over sockets, over an idle fault injector ---


class _Twin(KVWorkload):
    def __init__(self, seed: int, transport: str):
        super().__init__(
            PROBE_NAME, seed, "max-register", 1, transport, 0.9, TWIN_SIZES
        )

    def fault_plan(self, sizes: Sizes) -> FaultPlan:
        return FaultPlan()  # the injector with nothing to inject


def _run_twin(norm: Normaliser, seed: int, transport: str) -> Samples:
    samples = Samples()
    _Twin(seed, transport).run_epoch(0, norm, samples, TWIN_SIZES)
    if samples.failed or samples.audits_ok != samples.audits:
        raise RuntimeError(
            f"{transport} twin: {samples.failed} failed operations,"
            f" {samples.audits_ok}/{samples.audits} audits"
        )
    return samples


def _unloaded(samples: Samples) -> float:
    return median([ms for _, ms in samples.unloaded_ms])


def twin_probes(norm: Normaliser, seed: int) -> "Dict[str, float]":
    inproc = _run_twin(norm, seed, "inproc")
    sock = _run_twin(norm, seed, "asyncio")
    lossy = _run_twin(norm, seed, "lossy")
    return {
        "net.asyncio_transport.socket_ms_per_op": _unloaded(sock)
        - _unloaded(inproc),
        "net.lossy.neutral_ratio": median(lossy.sat_rates)
        / median(inproc.sat_rates),
    }


# -- net.wire -------------------------------------------------------------------


def _abd_frames() -> "List[LowLevelOp]":
    """The low-level operations of ABD gets and puts, answered: read-max
    rounds returning timestamped values, write-max rounds carrying them."""
    ops = []
    for index in range(FRAME_SAMPLE):
        value = TSVal(ts=index + 1, wid=index % 4, val=f"key-{index % 128}=sat0.{index}")
        if index % 2:
            kind, args, result = OpKind.READ_MAX, (), value
        else:
            kind, args, result = OpKind.WRITE_MAX, (value,), "ok"
        ops.append(
            LowLevelOp(
                OpId(100_000 + index),
                ClientId(50_000 + index % 8),
                ObjectId(index % 512),
                kind,
                args,
                trigger_time=0,
                respond_time=1,
                result=result,
            )
        )
    return ops


async def _split(codec, blob: bytes, count: int) -> "List[bytes]":
    """Cut a byte stream into frames the way a connection does."""
    reader = asyncio.StreamReader()
    reader.feed_data(blob)
    reader.feed_eof()
    return [await codec.read_frame(reader) for _ in range(count)]


def codec_probes(norm: Normaliser) -> "Dict[str, float]":
    """Encode and decode the request and the response of each sample op."""
    binary, json_codec = get_codec("binary"), get_codec("json")
    ops = _abd_frames()

    def encode_all(codec, done):
        for _ in range(CODEC_REPEATS):
            requests = [codec.encode_request(op) for op in ops]
            responses = [
                codec.encode_response(op.op_id.value, op.result) for op in ops
            ]
            done(2 * len(ops))
        return requests, responses

    def decode_all(codec, requests, responses, done):
        for _ in range(CODEC_REPEATS):
            for frame in requests:
                codec.decode_request(frame)
            for frame in responses:
                codec.decode_response(frame)
            done(2 * len(ops))

    def us_per_frame(chunks) -> float:
        return total_seconds(chunks) / (2 * len(ops) * CODEC_REPEATS) * 1e6

    (requests, responses), encode = norm.measure(
        lambda done: encode_all(binary, done)
    )
    wire_bytes = sum(len(frame) for frame in requests + responses)
    requests = asyncio.run(_split(binary, b"".join(requests), len(ops)))
    responses = asyncio.run(_split(binary, b"".join(responses), len(ops)))
    _, decode = norm.measure(
        lambda done: decode_all(binary, requests, responses, done)
    )
    _, json_encode = norm.measure(lambda done: encode_all(json_codec, done))
    return {
        "net.wire.encode_us_per_frame": us_per_frame(encode),
        "net.wire.decode_us_per_frame": us_per_frame(decode),
        "net.wire.json_encode_us_per_frame": us_per_frame(json_encode),
        "net.wire.bytes_per_frame": wire_bytes / (2 * len(ops)),
    }


def run_probes(norm: Normaliser, seed: int) -> "Dict[str, float]":
    metrics = kernel_probes(norm, inputs.epoch_seed(seed, PROBE_NAME, 0))
    metrics.update(twin_probes(norm, seed))
    metrics.update(codec_probes(norm))
    return metrics
