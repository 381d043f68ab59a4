"""The paper's contribution: bounds, layouts, emulations, adversary.

* :mod:`repro.core.bounds` — every closed-form bound (Table 1, Theorems
  1, 2, 3, 5, 6, 7).
* :mod:`repro.core.layout` — the register-to-server layout of Section 3.3
  (Figure 1) with its quorum system.
* :mod:`repro.core.emulation` — the ``Emulation`` contract, the one
  ``Deployment`` shell every algorithm below is deployed through, and
  the algorithm registry.
* :mod:`repro.core.ws_register` — Algorithm 2: the wait-free WS-Regular
  k-register from read/write registers (the upper bound).
* :mod:`repro.core.abd` — multi-writer ABD over per-server max-registers
  (the max-register upper bound of Table 1).
* :mod:`repro.core.cas_maxreg` — Algorithm 1: max-register from one CAS,
  and ABD over CAS servers (the CAS upper bound).
* :mod:`repro.core.collect_maxreg` — k-writer max-register from k
  registers (Theorem 2's matching construction) and the (2f+1)k-register
  emulation for n = 2f+1.
* :mod:`repro.core.covering` — Cov(t) and the Definition 1 bookkeeping
  (Q_i, F_i, M_i, G_i) with Lemma 2 invariant checks.
* :mod:`repro.core.adversary` — Definitions 2-3: BlockedWrites and Ad_i.
* :mod:`repro.core.lemma1` — the Lemma 1 run construction.
"""

from repro.core import bounds
from repro.core.emulation import (
    Emulation,
    EmulationSpec,
    algorithm_names,
    register_algorithm,
)
from repro.core.layout import RegisterLayout
from repro.core.ws_register import WSRegisterEmulation, WSRegisterClient
from repro.core.abd import ABDEmulation, ABDClient
from repro.core.cas_maxreg import (
    CASMaxRegisterClient,
    CASABDEmulation,
    SingleCASMaxRegister,
)
from repro.core.collect_maxreg import (
    CollectMaxRegister,
    ReplicatedMaxRegisterEmulation,
)
from repro.core.covering import CoveringTracker, PhaseState
from repro.core.adversary import AdversaryAdi
from repro.core.lemma1 import Lemma1Runner, PhaseReport
from repro.core.multi import MultiRegisterDeployment
from repro.core.ft_maxreg import FTMaxRegister
from repro.core.layout_opt import CapacitatedPlan, capacitated_layout

__all__ = [
    "ABDClient",
    "ABDEmulation",
    "AdversaryAdi",
    "CASABDEmulation",
    "CASMaxRegisterClient",
    "CollectMaxRegister",
    "CoveringTracker",
    "CapacitatedPlan",
    "Emulation",
    "EmulationSpec",
    "FTMaxRegister",
    "Lemma1Runner",
    "MultiRegisterDeployment",
    "PhaseReport",
    "PhaseState",
    "RegisterLayout",
    "ReplicatedMaxRegisterEmulation",
    "SingleCASMaxRegister",
    "WSRegisterClient",
    "WSRegisterEmulation",
    "algorithm_names",
    "bounds",
    "capacitated_layout",
    "register_algorithm",
]
