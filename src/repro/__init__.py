"""repro — reproduction of Chockler & Spiegelman,
"Space Complexity of Fault-Tolerant Register Emulations" (PODC 2017).

The package provides:

* a simulator for the paper's asynchronous fault-prone shared memory
  model (:mod:`repro.sim`),
* the paper's emulation algorithms and lower-bound machinery
  (:mod:`repro.core`),
* executable consistency conditions (:mod:`repro.consistency`),
* workloads and measurement (:mod:`repro.workloads`,
  :mod:`repro.analysis`).

Quickstart::

    from repro import WSRegisterEmulation
    emu = WSRegisterEmulation(k=2, n=5, f=2)
    writer = emu.add_writer(0)
    reader = emu.add_reader()
    writer.enqueue("write", "hello")
    emu.system.run_to_quiescence()
    reader.enqueue("read")
    emu.system.run_to_quiescence()
    assert emu.history.reads[-1].result == "hello"
"""

from repro.core import bounds
from repro.core.emulation import Emulation, EmulationSpec
from repro.core.abd import ABDEmulation
from repro.core.adversary import AdversaryAdi
from repro.core.cas_maxreg import CASABDEmulation, SingleCASMaxRegister
from repro.core.collect_maxreg import (
    CollectMaxRegister,
    ReplicatedMaxRegisterEmulation,
)
from repro.core.covering import CoveringTracker
from repro.core.multi import MultiRegisterDeployment
from repro.core.ft_maxreg import FTMaxRegister
from repro.core.layout import RegisterLayout
from repro.core.lemma1 import Lemma1Runner
from repro.core.ws_register import WSRegisterEmulation
from repro.consistency import (
    check_ws_regular,
    check_ws_safe,
    is_linearizable,
    is_register_history_atomic,
)
from repro.apps.shard import (
    ShardConfig,
    ShardedKVService,
    ShardServiceConfig,
    run_loadgen,
)
from repro.errors import ReproError
from repro.exec import Cell, run_experiment_grid
from repro.experiments import ExperimentResult, run_experiment
from repro.verify import VerificationReport, verify_run
from repro.workloads import run_workload, write_sequential_workload

__version__ = "1.0.0"

__all__ = [
    "ABDEmulation",
    "AdversaryAdi",
    "CASABDEmulation",
    "Cell",
    "CollectMaxRegister",
    "CoveringTracker",
    "Emulation",
    "EmulationSpec",
    "ExperimentResult",
    "FTMaxRegister",
    "Lemma1Runner",
    "MultiRegisterDeployment",
    "RegisterLayout",
    "ReplicatedMaxRegisterEmulation",
    "ReproError",
    "ShardConfig",
    "ShardServiceConfig",
    "ShardedKVService",
    "SingleCASMaxRegister",
    "VerificationReport",
    "WSRegisterEmulation",
    "bounds",
    "check_ws_regular",
    "check_ws_safe",
    "is_linearizable",
    "is_register_history_atomic",
    "run_experiment",
    "run_experiment_grid",
    "run_loadgen",
    "run_workload",
    "verify_run",
    "write_sequential_workload",
]
