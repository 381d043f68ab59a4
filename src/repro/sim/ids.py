"""Typed identifiers for the simulated system.

Identifiers are small immutable value types rather than bare integers so
that a client id can never be accidentally used where a server id is
expected.  They are hashable, ordered (within their own type), and cheap.

They used to be frozen dataclasses; profiling the kernel hot path showed
the generated ``__hash__`` (a Python-level call building a field tuple on
every dict/set lookup) at roughly a fifth of total step time, so the ids
are now hand-written ``__slots__`` classes that compute their hash once
at construction.  Everything observable is preserved: equality is
type-strict (``ClientId(1) != ServerId(1)``), ordering raises across
types, ``str``/``repr`` match the dataclass forms, and instances pickle.
"""

from __future__ import annotations

from typing import Any


class _Identifier:
    """Shared machinery: one int field, cached hash, type-strict compare."""

    __slots__ = ("index", "_hash")

    #: name of the single field in ``repr`` ("index" or "value").
    _FIELD = "index"

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_hash", hash((self.__class__, index)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(
            f"{self.__class__.__name__} is immutable; cannot set {name!r}"
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index == other.index

    def __ne__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index != other.index

    def __lt__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index < other.index

    def __le__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index <= other.index

    def __gt__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index > other.index

    def __ge__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index >= other.index

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self._FIELD}={self.index})"

    def __reduce__(self):
        return (self.__class__, (self.index,))


class ClientId(_Identifier):
    """Identity of a client process ``c_i`` in the set ``C``."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"c{self.index}"


class ServerId(_Identifier):
    """Identity of a server ``s_j`` in the set ``S``."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"s{self.index}"


class ObjectId(_Identifier):
    """Identity of a base object ``b`` in the set ``B``."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"b{self.index}"


class OpId(int):
    """Identity of a single low-level operation instance.

    Every trigger produces a fresh :class:`OpId`; the matching respond (if
    any) carries the same id.  Unlike the other id types, ``OpId`` is an
    ``int`` subclass: op ids key the kernel's ``pending``/respond tables
    and every client's in-flight set, so a dict lookup per kernel step
    goes through ``__hash__`` — inheriting the C-level ``int`` hash and
    equality removes that Python call from the hot path.  (The hash of an
    op id equals the hash of its plain value, which also keeps the seeded
    veto stream of the chaos environment — it hashes tuples containing
    ``op_id.value`` — byte-identical; the lossy transport's fate stream
    uses the id arithmetically, as the plain ``int`` it is.)

    Everything observable is preserved: ``repr``/``str`` match the old
    forms, equality against the *other* id types stays ``False``, and
    cross-type ordering still raises.  ``value`` returns the id itself —
    it already is its value.
    """

    __slots__ = ()

    @property
    def value(self) -> "OpId":
        return self

    def __repr__(self) -> str:
        return f"OpId(value={int(self)})"

    def __reduce__(self):
        return (OpId, (int(self),))

    def __str__(self) -> str:
        return f"op{int(self)}"
