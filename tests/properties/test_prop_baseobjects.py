"""Property test: every run's base-object projections are linearizable.

Meta-validation of the substrate (Appendix A's atomic base objects):
random emulations, seeds and crash patterns; after the run, the low-level
history of each base object must admit a linearization under its type's
sequential specification.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.baseobject_audit import audit_base_objects
from repro.core.abd import ABDEmulation
from repro.core.cas_maxreg import CASABDEmulation
from repro.core.ws_register import WSRegisterEmulation
from repro.sim.ids import ServerId
from repro.sim.scheduling import RandomScheduler


@st.composite
def run_configs(draw):
    kind = draw(st.sampled_from(["abd", "cas", "ws"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_ops = draw(st.integers(min_value=1, max_value=4))
    crash = draw(st.booleans())
    return kind, seed, n_ops, crash


@given(run_configs())
@settings(max_examples=25, deadline=None)
def test_base_object_projections_linearizable(config):
    kind, seed, n_ops, crash = config
    n, f = 3, 1
    if kind == "abd":
        emu = ABDEmulation(n=n, f=f, scheduler=RandomScheduler(seed))
        actors = [emu.add_client() for _ in range(2)]
    elif kind == "cas":
        emu = CASABDEmulation(n=n, f=f, scheduler=RandomScheduler(seed))
        actors = [emu.add_client() for _ in range(2)]
    else:
        emu = WSRegisterEmulation(k=2, n=n, f=f, scheduler=RandomScheduler(seed))
        actors = [emu.add_writer(0), emu.add_writer(1)]
    if crash:
        emu.kernel.crash_server(ServerId(random.Random(seed).randrange(n)))
    for index in range(n_ops):
        actors[index % 2].enqueue("write", f"v{index}")
    assert emu.system.run_to_quiescence(max_steps=500_000).satisfied
    verdicts = audit_base_objects(emu.kernel, max_ops_per_object=24)
    assert all(verdicts.values()), verdicts
