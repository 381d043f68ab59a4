"""Execute a workload against an emulation and collect metrics.

Works with anything satisfying the :class:`~repro.core.emulation.Emulation`
protocol (``kernel`` / ``object_map`` / ``history`` / ``add_writer(index)``
/ ``add_reader()`` — every emulation in :mod:`repro.core` conforms), or
with an :class:`~repro.core.emulation.EmulationSpec`, which the runner
builds first (handy across process boundaries, where only specs travel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Union

from repro.analysis.resources import (
    PointContentionMeter,
    ResourceMeter,
    StepMeter,
)
from repro.sim.history import History
from repro.sim.kernel import Kernel
from repro.workloads.generators import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.emulation import Emulation, EmulationSpec

#: step bound on one round of a workload
MAX_STEPS_PER_ROUND = 200_000


@dataclass
class RunReport:
    """Everything measured while running a workload."""

    history: History
    resource: ResourceMeter
    contention: PointContentionMeter
    steps: StepMeter
    total_steps: int
    completed_rounds: int
    #: the emulation the workload ran on (useful when a spec was passed
    #: and the deployment was built inside the runner).
    emulation: Any = None

    @property
    def resource_consumption(self) -> int:
        return self.resource.resource_consumption

    @property
    def max_covered(self) -> int:
        return self.resource.max_covered


def run_workload(
    emulation: "Union[Emulation, EmulationSpec]",
    workload: Workload,
    crash_plan=None,
) -> RunReport:
    """Run every round of ``workload`` to quiescence on ``emulation``.

    ``emulation`` may be a deployed emulation or an
    :class:`~repro.core.emulation.EmulationSpec` (built here).
    ``crash_plan`` (a :class:`~repro.sim.failures.CrashPlan`) is installed
    before the first round, so crashes fire at their scheduled steps while
    the workload executes.

    The meters subscribe to the kernel only for the duration of the call:
    they are detached on the way out, so running several workloads against
    one emulation never double-counts metrics.
    """
    from repro.core.emulation import EmulationSpec

    if isinstance(emulation, EmulationSpec):
        emulation = emulation.build()
    kernel = emulation.kernel
    if crash_plan is not None:
        crash_plan.install(kernel)
    resource = ResourceMeter()
    contention = PointContentionMeter()
    steps = StepMeter()
    meters = (resource, contention, steps)
    for meter in meters:
        kernel.add_listener(meter)

    try:
        writers = {
            index: emulation.add_writer(index)
            for index in workload.writer_indices
        }
        readers = {
            index: emulation.add_reader() for index in workload.reader_indices
        }

        # A round is done when each of the workload's clients is crashed
        # or idle with nothing queued.  When they are all of the kernel's
        # clients that is the kernel's own O(1) read; on a shared kernel
        # (a register view of a multi-register deployment) the other
        # registers' clients are not ours to wait for.
        live = list(writers.values()) + list(readers.values())
        if len(live) == len(kernel.clients):
            _round_done = Kernel.clients_settled
        else:

            def _round_done(k) -> bool:
                return all(
                    c.crashed or (c.idle and not c.program) for c in live
                )

        total_steps = 0
        completed_rounds = 0
        for round_ops in workload.rounds:
            for invocation in round_ops:
                kind, index = invocation.client
                runtime = (
                    writers[index] if kind == "writer" else readers[index]
                )
                runtime.enqueue(invocation.name, *invocation.args)

            result = kernel.run(
                max_steps=MAX_STEPS_PER_ROUND, until=_round_done
            )
            total_steps += result.steps
            if not result.satisfied:
                break
            completed_rounds += 1
    finally:
        for meter in meters:
            kernel.remove_listener(meter)

    return RunReport(
        history=emulation.history,
        resource=resource,
        contention=contention,
        steps=steps,
        total_steps=total_steps,
        completed_rounds=completed_rounds,
        emulation=emulation,
    )
