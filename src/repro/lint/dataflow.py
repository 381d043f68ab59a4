"""A small intraprocedural dataflow engine for the v2 lint rules.

The pattern rules (R001, R002, R004-R006) are single-pass AST matchers; the rule
families introduced with them in place (R007-R010) ask questions a
pattern cannot answer — *does this name hold a string when it is
hashed?  does the task handle ever reach an exception sink?  does a
parameter default smuggle ``print`` into an async body?* — so this
module gives rules three layers to build on:

* :class:`CFG` — an intraprocedural control-flow graph of basic blocks
  built from one function body, covering ``if``/``for``/``while``/
  ``try``/``with``, ``break``/``continue``/``return``/``raise``.
  Nested function and class definitions are opaque single statements
  (they define a name; their bodies belong to their own CFGs).
* :class:`ReachingDefs` — the classic forward may-analysis over that
  CFG: for every statement, which definitions of each name may reach
  it.  Parameters count as entry definitions carrying their default
  expression (when one exists), which is how a rule can see that
  ``announce=print`` makes a bare ``announce(...)`` a blocking call.
* :class:`Taint` — a forward may-taint propagation on top of the
  reaching state: seed expressions are declared by the rule via
  predicates, assignments propagate, reassignment from a clean value
  kills.

Scope and limits (also documented in docs/LINTING.md): the analysis is
intraprocedural (one function at a time, plus one deliberate level of
call-site lookup done by the rules themselves), flow-sensitive but
path-insensitive (both branches of an ``if`` are assumed reachable),
and type inference is literal-propagation only — a name "may be a str"
when *some* reaching definition binds it to a string literal,
f-string, ``str(...)`` call or another such name.  Unknown values
(attributes, calls, subscripts, parameters without defaults) are never
reported — every rule built on this engine errs toward silence.
"""

from __future__ import annotations

import ast
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: statement types that never transfer control (appended to the current
#: block; Return/Raise/Break/Continue terminate it instead).
_OPAQUE = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.Expr,
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Assert,
    ast.Delete,
    ast.Pass,
)


class Block:
    """One basic block: a straight-line statement run plus successors."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.stmts: "List[ast.AST]" = []
        self.succs: "List[int]" = []

    def add_succ(self, index: int) -> None:
        if index not in self.succs:
            self.succs.append(index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(type(s).__name__ for s in self.stmts)
        return f"Block({self.index}, [{kinds}], ->{self.succs})"


class CFG:
    """Control-flow graph of one function body.

    Branch/loop header statements (``If``/``While``/``For``/``With``/
    ``Try``) appear as the last statement of the block that evaluates
    them, so their own bindings (a ``for`` target, a ``with ... as``
    name) are generated on the edge into the construct's body.
    """

    def __init__(self) -> None:
        self.blocks: "List[Block]" = []
        self.entry = self._new_block().index

    # -- construction ------------------------------------------------------

    @classmethod
    def from_function(cls, func: FunctionNode) -> "CFG":
        cfg = cls()
        current: "Optional[Block]" = cfg.blocks[cfg.entry]
        current = cfg._build_body(func.body, current, loop=None)
        return cfg

    def _new_block(self) -> Block:
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    def _build_body(
        self,
        body: "Sequence[ast.stmt]",
        current: "Optional[Block]",
        loop: "Optional[Tuple[Block, Block]]",  # (header, exit)
        split: bool = False,
    ) -> "Optional[Block]":
        """Thread ``body`` onto ``current``; returns the live exit block
        (None when every path left via return/raise/break/continue).

        ``split`` puts each top-level statement in its own block — used
        for ``try`` bodies so an exception edge into a handler can carry
        the state after any prefix of the body, not just the whole block.
        """
        for stmt in body:
            if current is None:
                # unreachable code still gets parsed into a fresh block so
                # reaching queries on its statements have an answer
                current = self._new_block()
            elif split and current.stmts:
                nxt = self._new_block()
                current.add_succ(nxt.index)
                current = nxt
            if isinstance(stmt, _OPAQUE):
                current.stmts.append(stmt)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                current.stmts.append(stmt)
                current = None
            elif isinstance(stmt, ast.Break):
                current.stmts.append(stmt)
                if loop is not None:
                    current.add_succ(loop[1].index)
                current = None
            elif isinstance(stmt, ast.Continue):
                current.stmts.append(stmt)
                if loop is not None:
                    current.add_succ(loop[0].index)
                current = None
            elif isinstance(stmt, ast.If):
                current = self._build_if(stmt, current, loop)
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                current = self._build_loop(stmt, current, loop)
            elif isinstance(stmt, ast.Try):
                current = self._build_try(stmt, current, loop)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                current.stmts.append(stmt)
                current = self._build_body(stmt.body, current, loop)
            else:  # pragma: no cover - future statement kinds
                current.stmts.append(stmt)
        return current

    def _build_if(
        self,
        stmt: ast.If,
        current: Block,
        loop: "Optional[Tuple[Block, Block]]",
    ) -> "Optional[Block]":
        current.stmts.append(stmt)
        then_entry = self._new_block()
        current.add_succ(then_entry.index)
        then_exit = self._build_body(stmt.body, then_entry, loop)
        else_exit: "Optional[Block]" = None
        if stmt.orelse:
            else_entry = self._new_block()
            current.add_succ(else_entry.index)
            else_exit = self._build_body(stmt.orelse, else_entry, loop)
            fall_through = False
        else:
            fall_through = True
        if then_exit is None and else_exit is None and not fall_through:
            return None
        join = self._new_block()
        if fall_through:
            current.add_succ(join.index)
        for exit_block in (then_exit, else_exit):
            if exit_block is not None:
                exit_block.add_succ(join.index)
        return join

    def _build_loop(
        self,
        stmt: "Union[ast.While, ast.For, ast.AsyncFor]",
        current: Block,
        loop: "Optional[Tuple[Block, Block]]",
    ) -> Block:
        header = self._new_block()
        current.add_succ(header.index)
        header.stmts.append(stmt)
        exit_block = self._new_block()
        body_entry = self._new_block()
        header.add_succ(body_entry.index)
        body_exit = self._build_body(stmt.body, body_entry, (header, exit_block))
        if body_exit is not None:
            body_exit.add_succ(header.index)
        if stmt.orelse:
            else_entry = self._new_block()
            header.add_succ(else_entry.index)
            else_exit = self._build_body(stmt.orelse, else_entry, loop)
            if else_exit is not None:
                else_exit.add_succ(exit_block.index)
        else:
            header.add_succ(exit_block.index)
        return exit_block

    def _build_try(
        self,
        stmt: ast.Try,
        current: Block,
        loop: "Optional[Tuple[Block, Block]]",
    ) -> "Optional[Block]":
        body_entry = self._new_block()
        current.add_succ(body_entry.index)
        body_start = len(self.blocks) - 1
        body_exit = self._build_body(stmt.body, body_entry, loop, split=True)
        body_blocks = self.blocks[body_start : len(self.blocks)]
        if body_exit is not None and stmt.orelse:
            body_exit = self._build_body(stmt.orelse, body_exit, loop)
        handler_exits: "List[Optional[Block]]" = []
        for handler in stmt.handlers:
            handler_entry = self._new_block()
            # an exception may fire after any prefix of the body: every
            # body block may transfer to every handler (may-analysis)
            for block in body_blocks:
                block.add_succ(handler_entry.index)
            current.add_succ(handler_entry.index)
            handler_entry.stmts.append(handler)
            handler_exits.append(
                self._build_body(handler.body, handler_entry, loop)
            )
        exits = [body_exit] + handler_exits
        live = [block for block in exits if block is not None]
        if stmt.finalbody:
            final_entry = self._new_block()
            # normal exits AND exceptional prefixes reach the finally
            current.add_succ(final_entry.index)
            for block in body_blocks:
                block.add_succ(final_entry.index)
            for block in live:
                block.add_succ(final_entry.index)
            return self._build_body(stmt.finalbody, final_entry, loop)
        if not live:
            return None
        join = self._new_block()
        for block in live:
            block.add_succ(join.index)
        return join

    # -- queries -----------------------------------------------------------

    def preds(self) -> "Dict[int, List[int]]":
        result: "Dict[int, List[int]]" = {b.index: [] for b in self.blocks}
        for block in self.blocks:
            for succ in block.succs:
                result[succ].append(block.index)
        return result


class Def:
    """One definition: ``name`` bound at ``stmt``, optionally to ``value``.

    ``value`` is the bound expression when it is statically known (the
    right-hand side of an assignment, a parameter's default) and None
    for opaque bindings (for-loop targets, ``except ... as`` names,
    parameters without defaults).  ``via`` distinguishes how the name
    was bound ("assign", "augassign", "param", "for", "with", "except",
    "import", "def").
    """

    __slots__ = ("name", "stmt", "value", "via")

    def __init__(
        self,
        name: str,
        stmt: "Optional[ast.AST]",
        value: "Optional[ast.expr]",
        via: str = "assign",
    ) -> None:
        self.name = name
        self.stmt = stmt
        self.value = value
        self.via = via

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        line = getattr(self.stmt, "lineno", "?")
        return f"Def({self.name}@{line}:{self.via})"


State = Dict[str, FrozenSet[Def]]


def _assign_defs(stmt: ast.AST) -> "List[Def]":
    """Definitions generated by one (non-header) statement."""
    defs: "List[Def]" = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            defs.extend(_target_defs(target, stmt, stmt.value))
    elif isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None:
            defs.extend(_target_defs(stmt.target, stmt, stmt.value))
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Name):
            defs.append(Def(stmt.target.id, stmt, None, via="augassign"))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        defs.extend(_target_defs(stmt.target, stmt, None, via="for"))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                defs.extend(
                    _target_defs(item.optional_vars, stmt, None, via="with")
                )
    elif isinstance(stmt, ast.ExceptHandler):
        if stmt.name:
            defs.append(Def(stmt.name, stmt, None, via="except"))
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            defs.append(Def(bound, stmt, None, via="import"))
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        defs.append(Def(stmt.name, stmt, None, via="def"))
    return defs


def _target_defs(
    target: ast.expr,
    stmt: ast.AST,
    value: "Optional[ast.expr]",
    via: str = "assign",
) -> "List[Def]":
    if isinstance(target, ast.Name):
        return [Def(target.id, stmt, value, via=via)]
    if isinstance(target, (ast.Tuple, ast.List)):
        defs: "List[Def]" = []
        elements = list(target.elts)
        values: "List[Optional[ast.expr]]" = [None] * len(elements)
        if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
            elements
        ):
            values = list(value.elts)
        for element, element_value in zip(elements, values):
            if isinstance(element, ast.Starred):
                element = element.value
                element_value = None
            if isinstance(element, ast.Name):
                defs.append(Def(element.id, stmt, element_value, via=via))
        return defs
    return []


def _param_defs(func: FunctionNode) -> "List[Def]":
    """Entry definitions for the parameters (defaults become values)."""
    args = func.args
    defs: "List[Def]" = []
    positional = list(args.posonlyargs) + list(args.args)
    defaults: "List[Optional[ast.expr]]" = [None] * (
        len(positional) - len(args.defaults)
    ) + list(args.defaults)
    for arg, default in zip(positional, defaults):
        defs.append(Def(arg.arg, func, default, via="param"))
    for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        defs.append(Def(arg.arg, func, kw_default, via="param"))
    for vararg in (args.vararg, args.kwarg):
        if vararg is not None:
            defs.append(Def(vararg.arg, func, None, via="param"))
    return defs


def _join(states: "Sequence[State]") -> State:
    """May-union of predecessor OUT states."""
    joined: "Dict[str, Set[Def]]" = {}
    for state in states:
        for name, defs in state.items():
            joined.setdefault(name, set()).update(defs)
    return {name: frozenset(defs) for name, defs in joined.items()}


def _transfer(
    state: State, stmt: ast.AST, cache: "Dict[ast.AST, List[Def]]"
) -> State:
    # the fixpoint compares Def sets by identity, so the same statement
    # must yield the same Def objects on every visit — hence the cache
    defs = cache.get(stmt)
    if defs is None:
        defs = _assign_defs(stmt)
        cache[stmt] = defs
    if not defs:
        return state
    result = dict(state)
    for item in defs:
        if item.via == "augassign":
            # x += e reads the old x: keep prior defs in the may-set so
            # kind queries can still see what is being accumulated.
            prior = result.get(item.name, frozenset())
            result[item.name] = prior | {item}
        else:
            result[item.name] = frozenset((item,))
    return result


class ReachingDefs:
    """Reaching definitions for one function, queryable per statement."""

    def __init__(self, func: FunctionNode) -> None:
        self.func = func
        self.cfg = CFG.from_function(func)
        entry_state: State = {
            d.name: frozenset((d,)) for d in _param_defs(func)
        }
        preds = self.cfg.preds()
        n = len(self.cfg.blocks)
        cache: "Dict[ast.AST, List[Def]]" = {}
        in_states: "List[State]" = [{} for _ in range(n)]
        out_states: "List[State]" = [{} for _ in range(n)]
        in_states[self.cfg.entry] = entry_state
        work = list(range(n))
        while work:
            index = work.pop(0)
            block = self.cfg.blocks[index]
            incoming = [out_states[p] for p in preds[index]]
            if index == self.cfg.entry:
                incoming.append(entry_state)
            state = _join(incoming) if incoming else {}
            in_states[index] = state
            for stmt in block.stmts:
                state = _transfer(state, stmt, cache)
            if state != out_states[index]:
                out_states[index] = state
                for succ in block.succs:
                    if succ not in work:
                        work.append(succ)
        self._in = in_states
        self._out = out_states
        #: state holding *before* each statement, keyed by node identity
        self._before: "Dict[ast.AST, State]" = {}
        for block in self.cfg.blocks:
            state = in_states[block.index]
            if block.index == self.cfg.entry:
                state = _join([state, entry_state])
            for stmt in block.stmts:
                self._before[stmt] = state
                state = _transfer(state, stmt, cache)

    def before(self, stmt: ast.AST) -> State:
        """The may-reaching definitions immediately before ``stmt``."""
        return self._before.get(stmt, {})

    def defs_of(self, stmt: ast.AST, name: str) -> "Tuple[Def, ...]":
        """Reaching defs of ``name`` before ``stmt``, in source order."""
        found = self.before(stmt).get(name, frozenset())
        return tuple(
            sorted(
                found,
                key=lambda d: (
                    getattr(d.stmt, "lineno", 0),
                    getattr(d.stmt, "col_offset", 0),
                    d.via,
                ),
            )
        )

    def statements(self) -> "Iterator[ast.AST]":
        for block in self.cfg.blocks:
            for stmt in block.stmts:
                yield stmt


# -- literal value kinds ------------------------------------------------------

_CONSTRUCTORS = {
    "str": "str",
    "bytes": "bytes",
    "int": "int",
    "float": "float",
    "bool": "bool",
    "list": "list",
    "tuple": "tuple",
    "set": "set",
    "frozenset": "set",
    "dict": "dict",
    "sorted": "list",
    "repr": "str",
    "format": "str",
}


def literal_kind(expr: "Optional[ast.expr]") -> "Optional[str]":
    """The value kind of an expression, when statically evident.

    Returns one of "str", "bytes", "int", "float", "bool", "none",
    "list", "tuple", "set", "dict" — or None for anything unknown.
    """
    if expr is None:
        return None
    if isinstance(expr, ast.Constant):
        value = expr.value
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, str):
            return "str"
        if isinstance(value, bytes):
            return "bytes"
        if isinstance(value, int):
            return "int"
        if isinstance(value, float):
            return "float"
        if value is None:
            return "none"
        return None
    if isinstance(expr, (ast.JoinedStr, ast.FormattedValue)):
        return "str"
    if isinstance(expr, ast.List):
        return "list"
    if isinstance(expr, ast.Tuple):
        return "tuple"
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(expr, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(expr, ast.ListComp):
        return "list"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return _CONSTRUCTORS.get(expr.func.id)
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.Add, ast.Sub, ast.Mult)
    ):
        left = literal_kind(expr.left)
        right = literal_kind(expr.right)
        if "float" in (left, right) and {left, right} <= {"float", "int"}:
            return "float"
        if left == right:
            return left
    return None


def may_be_kind(
    expr: "Optional[ast.expr]",
    kind: str,
    reaching: ReachingDefs,
    at: ast.AST,
    _depth: int = 0,
) -> bool:
    """True when ``expr`` *may* evaluate to a value of ``kind``.

    Names resolve through the reaching definitions at ``at``; any one
    matching definition is enough (may-analysis).  Unknown values are
    *not* assumed to match — the engine errs toward silence.
    """
    if expr is None or _depth > 6:
        return False
    if literal_kind(expr) == kind:
        return True
    if isinstance(expr, ast.Name):
        for definition in reaching.defs_of(at, expr.id):
            if definition.value is None:
                continue
            anchor = definition.stmt if definition.stmt is not None else at
            if may_be_kind(
                definition.value, kind, reaching, anchor, _depth + 1
            ):
                return True
    return False


def resolves_to_builtin(
    expr: ast.expr,
    builtins: "Set[str]",
    reaching: ReachingDefs,
    at: ast.AST,
) -> "Optional[str]":
    """The builtin from ``builtins`` that ``expr`` may be bound to.

    Resolves one level of indirection: a Name whose reaching definition
    (assignment or parameter default) is a bare Name naming a builtin —
    the ``announce=print`` pattern.
    """
    if isinstance(expr, ast.Name):
        if expr.id in builtins:
            return expr.id
        for definition in reaching.defs_of(at, expr.id):
            if isinstance(definition.value, ast.Name):
                if definition.value.id in builtins:
                    return definition.value.id
    return None


# -- taint propagation --------------------------------------------------------


class Taint:
    """Forward may-taint over a function's CFG.

    ``is_source`` marks expressions that *produce* a tainted value;
    ``stmt_sources`` (optional) lets a rule taint names per statement
    (e.g. a float-accumulating ``AugAssign`` target).  A name becomes
    tainted when it is assigned from an expression containing a source
    or an already-tainted name, and is cleansed when reassigned from a
    clean one.
    """

    def __init__(
        self,
        reaching: ReachingDefs,
        is_source: "Callable[[ast.expr], bool]",
        stmt_sources: "Optional[Callable[[ast.AST, Set[str]], Set[str]]]" = None,
    ) -> None:
        self.reaching = reaching
        self.is_source = is_source
        self.stmt_sources = stmt_sources
        cfg = reaching.cfg
        preds = cfg.preds()
        n = len(cfg.blocks)
        out_states: "List[Set[str]]" = [set() for _ in range(n)]
        work = list(range(n))
        while work:
            index = work.pop(0)
            block = cfg.blocks[index]
            state: "Set[str]" = set()
            for pred in preds[index]:
                state |= out_states[pred]
            for stmt in block.stmts:
                state = self._transfer(state, stmt)
            if state != out_states[index]:
                out_states[index] = state
                for succ in block.succs:
                    if succ not in work:
                        work.append(succ)
        self._before: "Dict[ast.AST, Set[str]]" = {}
        in_states: "List[Set[str]]" = [set() for _ in range(n)]
        for block in cfg.blocks:
            for pred in preds[block.index]:
                in_states[block.index] |= out_states[pred]
        for block in cfg.blocks:
            state = set(in_states[block.index])
            for stmt in block.stmts:
                self._before[stmt] = set(state)
                state = self._transfer(state, stmt)

    def _transfer(self, state: "Set[str]", stmt: ast.AST) -> "Set[str]":
        result = set(state)
        if isinstance(stmt, ast.Assign):
            dirty = self.expr_tainted(stmt.value, result)
            for target in stmt.targets:
                for definition in _target_defs(target, stmt, stmt.value):
                    if dirty:
                        result.add(definition.name)
                    else:
                        result.discard(definition.name)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                if self.expr_tainted(stmt.value, result):
                    result.add(stmt.target.id)
                else:
                    result.discard(stmt.target.id)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                if self.expr_tainted(stmt.value, result):
                    result.add(stmt.target.id)
        if self.stmt_sources is not None:
            result |= self.stmt_sources(stmt, result)
        return result

    def expr_tainted(self, expr: "Optional[ast.expr]", state: "Set[str]") -> bool:
        """Does ``expr`` read a tainted name or contain a source?"""
        if expr is None:
            return False
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in state:
                return True
            if isinstance(node, ast.expr) and self.is_source(node):
                return True
        return False

    def tainted_before(self, stmt: ast.AST) -> "Set[str]":
        return self._before.get(stmt, set())
