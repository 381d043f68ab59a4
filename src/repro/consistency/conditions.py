"""The consistency conditions, by name: one table for every audit.

:data:`CONDITIONS` maps each condition name an emulation may guarantee
(its ``CONDITION`` attribute) to a :class:`Condition`: the label
:func:`repro.verify.verify_run` reports it under and the checker that
finds its violations.  :meth:`repro.core.emulation.Deployment.audit`,
the per-slot audit of :mod:`repro.core.multi` and ``verify_run`` all
look conditions up here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.consistency.linearizability import is_linearizable
from repro.consistency.mw_regularity import (
    check_mw_regular_strong,
    check_mw_regular_weak,
)
from repro.consistency.register_atomicity import is_register_history_atomic
from repro.consistency.specs import MaxRegisterSpec
from repro.consistency.ws import check_ws_regular, check_ws_safe
from repro.sim.history import History


@dataclass(frozen=True)
class Condition:
    """One consistency condition: its report label and its checker."""

    label: str
    #: ``find(history, initial_value)`` -> the violations (empty: holds)
    find: "Callable[[History, Any], List[Any]]"

    def holds(self, history: History, initial_value: Any = None) -> bool:
        return not self.find(history, initial_value)


def _all_or_nothing(
    check: "Callable[[History, Any], bool]", failure: str
) -> "Callable[[History, Any], List[Any]]":
    """A yes/no checker in the violation-list shape (one violation)."""
    return lambda history, v0: [] if check(history, v0) else [failure]


CONDITIONS: "Dict[str, Condition]" = {
    "atomic": Condition(
        "atomicity (linearizability)",
        _all_or_nothing(
            is_register_history_atomic, "no register linearization exists"
        ),
    ),
    "ws-regular": Condition("WS-Regularity", check_ws_regular),
    "ws-safe": Condition("WS-Safety", check_ws_safe),
    "mw-weak": Condition("MW-Weak regularity", check_mw_regular_weak),
    "mw-strong": Condition("MW-Strong regularity", check_mw_regular_strong),
    "max-register-atomic": Condition(
        "max-register atomicity",
        _all_or_nothing(
            lambda history, v0: is_linearizable(
                history.all_ops(), MaxRegisterSpec(v0)
            ),
            "no max-register linearization exists",
        ),
    ),
}
