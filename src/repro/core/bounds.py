"""Closed-form bounds from the paper.

Every bound in Table 1 and Theorems 1, 2, 3, 5, 7 as a checked Python
function (Theorem 6's per-server count is measured by the ``TH6``
experiment).  Parameter names follow the paper:

* ``k`` — number of writers of the emulated register (k > 0),
* ``n`` — number of servers, ``n = |S|`` (n >= 2f + 1),
* ``f`` — failure threshold (f > 0),
* ``z = floor((n - (f+1)) / f)`` — writers supported per register set,
* ``y = z*f + f + 1`` — size of a full register set.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.errors import BoundViolation


def _validate_kf(k: int, f: int) -> None:
    if k <= 0:
        raise BoundViolation(f"k must be positive, got {k}")
    if f <= 0:
        raise BoundViolation(f"f must be positive, got {f}")


def _validate(k: int, n: int, f: int) -> None:
    _validate_kf(k, f)
    if n < 2 * f + 1:
        raise BoundViolation(
            f"n must be at least 2f+1 = {2 * f + 1} (Theorem 5), got {n}"
        )


def min_servers(f: int) -> int:
    """Theorem 5: any f-tolerant WS-Safe obstruction-free emulation needs
    at least 2f + 1 servers."""
    if f <= 0:
        raise BoundViolation(f"f must be positive, got {f}")
    return 2 * f + 1


def z_value(n: int, f: int) -> int:
    """``z = floor((n - (f+1)) / f)``: writers per register set (Sec. 3.3)."""
    _validate(1, n, f)
    return (n - (f + 1)) // f


def y_value(n: int, f: int) -> int:
    """``y = z*f + f + 1``: size of a full register set (Sec. 3.3)."""
    return z_value(n, f) * f + f + 1


def max_register_lower_bound(f: int) -> int:
    """Table 1: max-register base objects, lower bound (2f + 1)."""
    if f <= 0:
        raise BoundViolation(f"f must be positive, got {f}")
    return 2 * f + 1


def max_register_upper_bound(f: int) -> int:
    """Table 1: max-register base objects, upper bound (2f + 1, via ABD)."""
    return max_register_lower_bound(f)


def cas_lower_bound(f: int) -> int:
    """Table 1: CAS base objects, lower bound (2f + 1)."""
    return max_register_lower_bound(f)


def cas_upper_bound(f: int) -> int:
    """Table 1: CAS base objects, upper bound (2f + 1; Appendix B turns
    each CAS into a max-register)."""
    return max_register_lower_bound(f)


def register_lower_bound(k: int, n: int, f: int) -> int:
    """Theorem 1: at least ``kf + ceil(kf / (n-(f+1))) * (f+1)`` registers."""
    _validate(k, n, f)
    return k * f + math.ceil(k * f / (n - (f + 1))) * (f + 1)


def register_upper_bound(k: int, n: int, f: int) -> int:
    """Theorem 3: Algorithm 2 uses ``kf + ceil(k / z) * (f+1)`` registers."""
    _validate(k, n, f)
    z = z_value(n, f)
    return k * f + math.ceil(k / z) * (f + 1)


def register_bound_gap(k: int, n: int, f: int) -> int:
    """Upper minus lower bound — the open gap discussed in Section 4."""
    return register_upper_bound(k, n, f) - register_lower_bound(k, n, f)


def k_max_register_lower_bound(k: int) -> int:
    """Theorem 2: a wait-free k-writer max-register needs >= k registers."""
    if k <= 0:
        raise BoundViolation(f"k must be positive, got {k}")
    return k


def servers_needed_bounded_storage(k: int, f: int, m: int) -> int:
    """Theorem 7: with at most ``m`` registers per server, an emulation
    needs at least ``ceil(kf/m) + f + 1`` servers."""
    _validate_kf(k, f)
    if m <= 0:
        raise BoundViolation(f"per-server capacity m must be positive, got {m}")
    return math.ceil(k * f / m) + f + 1


def layout_set_sizes(k: int, n: int, f: int) -> "list[int]":
    """Sizes of the register sets R_0, ..., of Section 3.3.

    ``floor(k/z)`` full sets of ``y`` registers, plus — when z does not
    divide k — one overflow set of ``(k mod z)*f + f + 1`` registers.
    """
    _validate(k, n, f)
    z = z_value(n, f)
    y = y_value(n, f)
    sizes = [y] * (k // z)
    remainder = k % z
    if remainder:
        sizes.append(remainder * f + f + 1)
    return sizes


def writers_supported_by_set(set_size: int, f: int) -> int:
    """``floor((|Ri| - (f+1)) / f)``: writers a set of registers supports."""
    if f <= 0:
        raise BoundViolation(f"f must be positive, got {f}")
    return (set_size - (f + 1)) // f


def table1_row(base_object: str, k: int, n: int, f: int) -> "Dict[str, int]":
    """One row of Table 1 for given parameters.

    ``base_object`` is ``"max-register"``, ``"cas"`` or ``"register"``.
    """
    if base_object == "max-register":
        return {
            "lower": max_register_lower_bound(f),
            "upper": max_register_upper_bound(f),
        }
    if base_object == "cas":
        return {"lower": cas_lower_bound(f), "upper": cas_upper_bound(f)}
    if base_object == "register":
        return {
            "lower": register_lower_bound(k, n, f),
            "upper": register_upper_bound(k, n, f),
        }
    raise BoundViolation(f"unknown base object type {base_object!r}")


def saturation_n(k: int, f: int) -> int:
    """The server count ``kf + f + 1`` beyond which more servers no longer
    reduce the register bounds (both equal ``kf + f + 1`` there)."""
    _validate_kf(k, f)
    return k * f + f + 1
