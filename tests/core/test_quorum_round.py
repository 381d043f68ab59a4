"""No response outlives its round: the quorum clients keep nothing
between operations.

Every ABD-family client awaits ``n - f`` of ``n`` per-server responses
and moves on; the other ``f`` arrive later (or never).  Whatever the
client kept for the round must be gone once its operation returns, or
a long run accumulates one leftover per straggler.  The check runs
before every kernel step: an idle client holds no responses.
"""

import pytest

from repro.core.abd import ABDEmulation
from repro.core.cas_maxreg import CASABDClient, CASABDEmulation
from repro.core.ft_maxreg import FTMaxRegister
from repro.core.theorem5 import partition_run
from repro.sim.ids import ServerId
from repro.sim.kernel import Kernel
from repro.sim.scheduling import RandomScheduler


def _leftovers(protocol) -> int:
    kept = len(protocol._results)
    if isinstance(protocol, CASABDClient):
        kept += len(protocol.ops._results) + len(protocol.ops._awaited)
    return kept


def _idle_clients_hold_nothing(kernel: Kernel) -> bool:
    for runtime in kernel.clients.values():
        if runtime.idle:
            assert _leftovers(runtime.protocol) == 0, runtime.client_id
    return False


@pytest.mark.parametrize(
    "deployment,write,read,values",
    [
        (ABDEmulation, "write", "read", ["a", "b", "c", "d"]),
        (CASABDEmulation, "write", "read", ["a", "b", "c", "d"]),
        (FTMaxRegister, "write_max", "read_max", [1, 2, 3, 4]),
    ],
    ids=["abd", "cas-abd", "ft-maxreg"],
)
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_no_response_outlives_its_round(deployment, write, read, values, seed):
    emu = deployment(n=5, f=2, scheduler=RandomScheduler(seed))
    emu.kernel.crash_server(ServerId(4))
    writer, reader = emu.add_client(), emu.add_client()
    for value in values:
        writer.enqueue(write, value)
        reader.enqueue(read)
        result = emu.kernel.run(
            max_steps=100_000,
            until=lambda k: _idle_clients_hold_nothing(k)
            or Kernel.clients_quiescent(k),
        )
        assert result.satisfied
        for protocol in emu.clients:
            assert _leftovers(protocol) == 0
    assert len(emu.history.writes) == len(values)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_theorem5_writer_keeps_no_responses(f):
    # The 2f-server control is ABD without write-back: the writer's f
    # straggling responses per round are dropped, not kept (3f would
    # remain over its two rounds and the reader's one otherwise).
    emu = partition_run(f)
    writer, reader = emu.clients
    assert writer._results == {}
    assert reader._results == {}
