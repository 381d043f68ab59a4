"""``RecordingScheduler`` is transparent around ``RandomScheduler``.

``Kernel.run`` asks its scheduler for an index into the enabled runtimes
and the allowed ready ops.  ``RandomScheduler.pick`` draws that index
from the count alone.  A ``RecordingScheduler`` around the same seeded
``RandomScheduler`` forwards each pick and records the picked step's
descriptor; it must not change the run.  The test records the bare
scheduler's picks by patching its ``pick`` and holds the two runs equal,
step for step: for every registry algorithm, over several seeds, in-process and over a ``LossyTransport`` with the weather of the
``kv_lossy_faults`` workload, with and without a vetoing environment
(``ChaosEnvironment``, whose veto filter and ``on_stall`` release run on
every step), the recorded schedules, the histories and ``kernel.time``
are identical.
"""

from __future__ import annotations

import json

import pytest

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
)
from repro.sim.chaos import ChaosEnvironment
from repro.sim.replay import RecordingScheduler
from repro.sim.scheduling import RandomScheduler

from tests.properties.test_prop_transport_identical import SCENARIO_TABLE

SEEDS = (0, 1, 5, 11, 23, 42)
ROUNDS = 3

WEATHER = dict(
    delay=Delay(0, 4), reorder=Reorder(0.3, window=10), duplicate=Duplicate(0.05)
)
#: ``kv_lossy_faults``' plan: weather on every link, 20% drops on server
#: 1, and a partition of server 2 that heals.
PLAN = FaultPlan(
    default=LinkFaults(**WEATHER),
    per_server=((1, LinkFaults(drop=Drop(0.2), **WEATHER)),),
    partitions=(Partition(40, 160, (2,)),),
)


def _recording_pick(scheduler, script):
    """Record ``scheduler``'s direct ``pick`` as replay descriptors."""
    pick = scheduler.pick

    def recording_pick(clients, responds, kernel):
        index = pick(clients, responds, kernel)
        if index < len(clients):
            script.append(("client", clients[index].client_id.index))
        else:
            script.append(("respond", responds[index - len(clients)].op_id))
        return index

    scheduler.pick = recording_pick


def _run(algorithm, seed, lossy, chaos, recording):
    params, write_op, read_op, value_kind, _ = SCENARIO_TABLE[algorithm]
    transport = TransportConfig.lossy(PLAN, seed=seed) if lossy else None
    emulation = EmulationSpec.make(
        algorithm, seed=seed, transport=transport, **params
    ).build()
    kernel = emulation.kernel
    if recording:
        kernel.scheduler = RecordingScheduler(RandomScheduler(seed))
        script = kernel.scheduler.script
    else:
        kernel.scheduler, script = RandomScheduler(seed), []
        _recording_pick(kernel.scheduler, script)
    if chaos:
        kernel.environment = ChaosEnvironment(
            seed=seed + 17, veto_probability=0.4, max_delay=60
        )
    writers = [emulation.add_writer(i) for i in range(2)]
    readers = [emulation.add_reader() for _ in range(2)]
    for round_index in range(ROUNDS):
        for writer_index, writer in enumerate(writers):
            value = 2 * round_index + writer_index + 1
            if value_kind == "str":
                value = f"w{writer_index}-{value}"
            writer.enqueue(write_op, value)
        for reader in readers:
            reader.enqueue(read_op)
        assert emulation.system.run_to_quiescence(200_000).satisfied
    history = json.dumps(emulation.history.to_dicts(), sort_keys=True)
    return script, history, kernel.time


@pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
@pytest.mark.parametrize("lossy", [False, True], ids=["inproc", "lossy"])
@pytest.mark.parametrize("algorithm", sorted(SCENARIO_TABLE))
def test_direct_pick_and_choose_adapter_run_identically(algorithm, lossy, chaos):
    for seed in SEEDS:
        direct = _run(algorithm, seed, lossy, chaos, recording=False)
        recorded = _run(algorithm, seed, lossy, chaos, recording=True)
        assert direct[0], (algorithm, seed)
        assert direct == recorded, (algorithm, seed)
