"""Executable consistency conditions (Appendix A.3 of the paper).

* :mod:`repro.consistency.specs` — sequential specifications of the object
  types (register, max-register, CAS).
* :mod:`repro.consistency.linearizability` — a general linearizability
  (atomicity) checker for small histories.
* :mod:`repro.consistency.ws` — the read window (the writes a read may
  return) and the exact WS-Regular / WS-Safe checkers built on it.
* :mod:`repro.consistency.mw_regularity` — MW-Weak (the same window)
  and MW-Strong (a search over write orders).
* :mod:`repro.consistency.register_atomicity` — a fast register-specific
  atomicity test for histories with distinct write values.
"""

from repro.consistency.specs import (
    CASSpec,
    MaxRegisterSpec,
    RegisterSpec,
    SequentialSpec,
)
from repro.consistency.linearizability import (
    find_linearization,
    is_linearizable,
)
from repro.consistency.ws import (
    WSViolation,
    check_ws_regular,
    check_ws_safe,
)
from repro.consistency.mw_regularity import (
    check_mw_regular_strong,
    check_mw_regular_weak,
)
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.schedule import (
    is_well_formed,
    project_client,
)

__all__ = [
    "CASSpec",
    "MaxRegisterSpec",
    "RegisterSpec",
    "SequentialSpec",
    "WSViolation",
    "check_mw_regular_strong",
    "check_mw_regular_weak",
    "check_ws_regular",
    "check_ws_safe",
    "find_linearization",
    "is_linearizable",
    "is_register_history_atomic",
    "is_well_formed",
    "project_client",
]
