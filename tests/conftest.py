"""Shared test helpers.

``drive_sequential`` runs a list of (runtime, op, args) invocations one at
a time to quiescence — producing write-sequential histories — and returns
the history.  ``ToyProtocol`` is a minimal single-object client used by
the kernel-level tests.  ``reference_run`` is :meth:`Kernel.run` spelled
out with public, from-scratch calls — what the differential tests and
the kernel bench hold the production loop against; ``reference_settled``
is the same for ``Kernel.clients_settled``.  ``IncrementalChecker`` runs
``Kernel.check_incremental`` after every step.  ``one_shard_service``
builds the single-fleet KV store: a ``ShardedKVService`` with one shard.
"""

from __future__ import annotations

import pytest

from repro.apps.shard import ShardedKVService, ShardServiceConfig
from repro.sim.client import ClientProtocol
from repro.sim.events import EventListener
from repro.sim.ids import ObjectId
from repro.sim.kernel import RunResult
from repro.sim.objects import OpKind


class ToyProtocol(ClientProtocol):
    """Single-register client: op_write/op_read against ObjectId(0)."""

    def __init__(self, object_id: ObjectId = ObjectId(0)):
        self.object_id = object_id
        self.results = {}

    def op_write(self, ctx, value):
        op = ctx.trigger(self.object_id, OpKind.WRITE, value)
        yield lambda: op in self.results
        self.results.pop(op)
        return "ack"

    def op_read(self, ctx):
        op = ctx.trigger(self.object_id, OpKind.READ)
        yield lambda: op in self.results
        return self.results.pop(op)

    def on_response(self, ctx, op):
        self.results[op.op_id] = op.result


def _allowed_steps(kernel):
    """The oracle's enabled runtimes and the ready ops the environment
    allows."""
    clients, responds = kernel.enabled_steps()
    allows = kernel.environment.allows
    return clients, responds, [op for op in responds if allows(op, kernel)]


def reference_run(kernel, max_steps=100_000, until=None):
    """``Kernel.run`` rebuilt from the oracle: no incremental state, no
    hoisting, no inlining — every step re-derives everything."""
    transport = kernel.transport
    steps = 0
    while steps < max_steps:
        if until is not None and until(kernel):
            return RunResult(steps, "until")
        transport.pump()
        clients, responds, allowed = _allowed_steps(kernel)
        if not clients and not allowed:
            reason = "blocked" if responds else "quiescent"
            if reason == "blocked" and kernel.environment.on_stall(kernel):
                clients, _, allowed = _allowed_steps(kernel)
            if not clients and not allowed:
                if transport.flush_idle():
                    continue
                return RunResult(steps, reason)
        index = kernel.scheduler.pick(clients, allowed, kernel)
        if index < len(clients):
            kernel.force_client_step(clients[index].client_id)
        else:
            kernel.force_respond(allowed[index - len(clients)].op_id)
        steps += 1
    if until is not None and until(kernel):
        return RunResult(steps, "until")
    return RunResult(steps, "max_steps")


def reference_settled(kernel):
    """``Kernel.clients_settled`` from scratch: a scan of every client."""
    return all(
        c.crashed or (c.idle and not c.program)
        for c in kernel.clients.values()
    )


class IncrementalChecker(EventListener):
    """``check_incremental`` after every kernel step: the enabled list
    and the O(1) quiescence predicates against their from-scratch
    oracles."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.checked = 0

    def on_step(self, time: int) -> None:
        self.kernel.check_incremental()
        self.checked += 1


def drive_sequential(system, invocations, max_steps: int = 200_000):
    """Run invocations one at a time; returns the system history.

    ``invocations`` is an iterable of ``(runtime, name, args)``.
    """
    for runtime, name, args in invocations:
        runtime.enqueue(name, *args)
        result = system.run_to_quiescence(max_steps=max_steps)
        assert result.satisfied, f"{name}{args} did not complete: {result}"
    return system.history


def drive_concurrent(system, invocations, max_steps: int = 200_000):
    """Enqueue all invocations, then run to quiescence."""
    for runtime, name, args in invocations:
        runtime.enqueue(name, *args)
    result = system.run_to_quiescence(max_steps=max_steps)
    assert result.satisfied, f"concurrent round did not complete: {result}"
    return system.history


def one_shard_service(
    substrate="max-register", *, n=5, f=2, k_writers=4, capacity=16, seed=0
):
    """A one-shard ``ShardedKVService``: every key on one fleet of ``n``
    servers, provisioned for ``capacity`` keys, its schedule seeded
    ``seed * 7919``."""
    return ShardedKVService(
        ShardServiceConfig.make(
            shards=1,
            substrate=substrate,
            n=n,
            f=f,
            k_writers=k_writers,
            capacity=capacity,
            seed=seed,
        )
    )
