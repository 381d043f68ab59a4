"""Sequential specifications of the object types studied by the paper.

A sequential specification maps ``(state, operation, args)`` to
``(new_state, result)``.  The linearizability checker replays candidate
orders through a spec and compares produced results with observed ones.
"""

from __future__ import annotations

from typing import Any, Hashable, Tuple

from repro.errors import ModelViolation


def hashable_key(value: Any) -> Hashable:
    """A hashable stand-in for ``value`` (repr for unhashable payloads)."""
    try:
        hash(value)
        return value
    except TypeError:
        return ("__unhashable__", repr(value))


class SequentialSpec:
    """Interface of a sequential object specification."""

    def initial_state(self) -> Any:
        raise NotImplementedError

    def apply(self, state: Any, name: str, args: tuple) -> "Tuple[Any, Any]":
        """Return ``(new_state, result)`` of applying the operation."""
        raise NotImplementedError

    def state_key(self, state: Any) -> Hashable:
        """Hashable key of a state (for memoization)."""
        return hashable_key(state)


class RegisterSpec(SequentialSpec):
    """Read/write register: ``read`` returns the last written value.

    Operation names: ``write`` (one arg, returns ``"ack"``) and ``read``
    (no args, returns the value).
    """

    def __init__(self, initial_value: Any = None):
        self.initial_value = initial_value

    def initial_state(self) -> Any:
        return self.initial_value

    def apply(self, state: Any, name: str, args: tuple) -> "Tuple[Any, Any]":
        if name == "write":
            (value,) = args
            return value, "ack"
        if name == "read":
            return state, state
        raise ModelViolation(f"register spec: unknown operation {name!r}")


class MaxRegisterSpec(SequentialSpec):
    """Max-register: ``read_max`` returns the largest value written so far.

    Operation names: ``write_max`` (one arg, returns ``"ok"``) and
    ``read_max`` (no args).  The value domain must be totally ordered.
    """

    def __init__(self, initial_value: Any):
        self.initial_value = initial_value

    def initial_state(self) -> Any:
        return self.initial_value

    def apply(self, state: Any, name: str, args: tuple) -> "Tuple[Any, Any]":
        if name == "write_max":
            (value,) = args
            new_state = state if state >= value else value
            return new_state, "ok"
        if name == "read_max":
            return state, state
        raise ModelViolation(f"max-register spec: unknown operation {name!r}")


class CASSpec(SequentialSpec):
    """Compare-and-swap: ``cas(exp, new)`` returns the old value."""

    def __init__(self, initial_value: Any):
        self.initial_value = initial_value

    def initial_state(self) -> Any:
        return self.initial_value

    def apply(self, state: Any, name: str, args: tuple) -> "Tuple[Any, Any]":
        if name == "cas":
            expected, new_value = args
            if state == expected:
                return new_value, state
            return state, state
        raise ModelViolation(f"CAS spec: unknown operation {name!r}")
