"""Dataflow-aware ``repro lint`` rules, R007–R010.

Where R001–R006 are single-pass AST pattern matchers, these four rule
families query the intraprocedural engine in
:mod:`repro.lint.dataflow` — reaching definitions, literal value
kinds, and taint propagation — so they can follow a value through
assignments instead of only recognising it at the point of use:

* R007 — event-loop discipline: blocking calls (``time.sleep``, sync
  socket/file IO, ``run_to_quiescence``) must not be reachable inside
  ``async def``; a callback parameter defaulting to ``print`` counts.
* R008 — unawaited coroutines and fire-and-forget tasks:
  ``create_task``/``ensure_future`` results need an exception sink.
* R009 — replay-determinism taint: salted ``hash()``/``id()`` values,
  unsorted set/dict iteration order, and float accumulation must not
  flow into fate functions, cache keys, or wire frames (the PR 4 bug
  class).
* R010 — typed-error discipline: service-layer code raises
  :mod:`repro.errors` classes, not bare ``ValueError``/``RuntimeError``.

Every rule inherits the engine's bias: unknown values never match, so
the rules err toward silence rather than noise.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.dataflow import (
    FunctionNode,
    ReachingDefs,
    Taint,
    may_be_kind,
    resolves_to_builtin,
)
from repro.lint.engine import (
    Finding,
    ModuleInfo,
    ProjectIndex,
    Rule,
    register_rule,
)
from repro.lint.rules import attribute_chain


def functions_with_enclosing(
    tree: ast.Module,
) -> "Iterator[Tuple[FunctionNode, List[FunctionNode]]]":
    """Every function in a module, with its enclosing-function stack
    (outermost first) — nested defs see their parents' parameters."""

    def walk(
        node: ast.AST, stack: "List[FunctionNode]"
    ) -> "Iterator[Tuple[FunctionNode, List[FunctionNode]]]":
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, list(stack)
                stack.append(child)
                yield from walk(child, stack)
                stack.pop()
            else:
                yield from walk(child, stack)

    yield from walk(tree, [])


def _own_statements(func: FunctionNode) -> "Iterator[ast.stmt]":
    """Statements of ``func`` itself, not of nested defs."""

    def walk(node: ast.AST) -> "Iterator[ast.stmt]":
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(child, ast.stmt):
                yield child
            yield from walk(child)

    yield from walk(func)


def _own_nodes(func: FunctionNode) -> "Iterator[ast.AST]":
    """AST nodes of ``func`` itself, not of nested defs."""

    def walk(node: ast.AST) -> "Iterator[ast.AST]":
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            yield child
            yield from walk(child)

    yield from walk(func)


def _enclosing_binding(
    name: str, stack: "Sequence[FunctionNode]"
) -> "Optional[ast.expr]":
    """The value a free variable is bound to in an enclosing function.

    Resolves the closure pattern the asyncio transport uses — a nested
    ``async def`` reading a parameter of the function that built it
    (``def run(..., announce=print): async def _serve(): announce(...)``).
    Checks parameter defaults and simple top-level assignments, innermost
    enclosing function first.
    """
    for func in reversed(stack):
        args = func.args
        positional = list(args.posonlyargs) + list(args.args)
        defaults: "List[Optional[ast.expr]]" = [None] * (
            len(positional) - len(args.defaults)
        ) + list(args.defaults)
        for arg, default in zip(positional, defaults):
            if arg.arg == name:
                return default
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == name:
                return kw_default
        for stmt in func.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return stmt.value
    return None


@register_rule
class EventLoopDisciplineRule(Rule):
    """R007: no blocking calls reachable inside ``async def``."""

    id = "R007"
    title = "no blocking calls inside async def"
    explain = (
        "A blocking call inside an async function stalls the whole event\n"
        "loop: every replica served by that loop stops responding, which\n"
        "the cluster harness cannot distinguish from a crash — so a\n"
        "stray time.sleep() silently changes the fault pattern under\n"
        "test.  Use `await asyncio.sleep(...)`, async transport APIs, or\n"
        "`loop.run_in_executor(...)` for genuinely blocking work.  The\n"
        "rule resolves callback parameters through their defaults, so\n"
        "`announce(...)` with `announce=print` in an enclosing function\n"
        "counts as blocking console IO."
    )

    #: dotted-call suffixes that block the calling thread.
    BLOCKING_SUFFIXES: "Set[Tuple[str, str]]" = {
        ("time", "sleep"),
        ("socket", "socket"),
        ("socket", "create_connection"),
        ("subprocess", "run"),
        ("subprocess", "check_output"),
        ("subprocess", "check_call"),
        ("os", "system"),
    }

    #: bare names whose call blocks (console/file IO builtins).
    BLOCKING_BUILTINS = {"open", "input", "print"}

    #: repro's own synchronous drivers: stepping a simulation to
    #: quiescence is a CPU-bound loop, not awaitable work.
    BLOCKING_LOCAL = {"run_to_quiescence"}

    def check(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> "Iterator[Finding]":
        assert module.tree is not None
        for func, stack in functions_with_enclosing(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            reaching: "Optional[ReachingDefs]" = None
            for node in _own_nodes(func):
                if not isinstance(node, ast.Call):
                    continue
                label = self._blocking_label(node)
                if label is None and isinstance(node.func, ast.Name):
                    if reaching is None:
                        reaching = ReachingDefs(func)
                    label = self._indirect_label(
                        node, func, stack, reaching
                    )
                if label is not None:
                    yield self.finding(
                        module,
                        node,
                        f"{label} blocks the event loop inside"
                        f" 'async def {func.name}'; use the async"
                        " equivalent or run_in_executor",
                    )

    def _blocking_label(self, call: ast.Call) -> "Optional[str]":
        chain = attribute_chain(call.func)
        if not chain:
            return None
        if len(chain) >= 2 and tuple(chain[-2:]) in self.BLOCKING_SUFFIXES:
            return ".".join(chain[-2:]) + "()"
        if chain[-1] in self.BLOCKING_LOCAL:
            return chain[-1] + "()"
        if (
            isinstance(call.func, ast.Name)
            and chain[0] in self.BLOCKING_BUILTINS
        ):
            return chain[0] + "()"
        return None

    def _indirect_label(
        self,
        call: ast.Call,
        func: FunctionNode,
        stack: "Sequence[FunctionNode]",
        reaching: ReachingDefs,
    ) -> "Optional[str]":
        """A bare-name call whose binding resolves to a blocking builtin
        — through this function's reaching defs or an enclosing scope."""
        assert isinstance(call.func, ast.Name)
        name = call.func.id
        anchor = self._enclosing_statement(call, func)
        if anchor is not None:
            resolved = resolves_to_builtin(
                call.func, self.BLOCKING_BUILTINS, reaching, anchor
            )
            if resolved is not None:
                return f"{name}() (= {resolved})"
            if reaching.defs_of(anchor, name):
                return None  # locally bound to something non-blocking
        bound = _enclosing_binding(name, stack)
        if isinstance(bound, ast.Name) and bound.id in self.BLOCKING_BUILTINS:
            return f"{name}() (= {bound.id})"
        return None

    @staticmethod
    def _enclosing_statement(
        call: ast.Call, func: FunctionNode
    ) -> "Optional[ast.stmt]":
        for stmt in _own_statements(func):
            for node in ast.walk(stmt):
                if node is call:
                    return stmt
        return None


@register_rule
class FireAndForgetRule(Rule):
    """R008: spawned tasks and coroutines need an exception sink."""

    id = "R008"
    title = "no fire-and-forget coroutines or unobserved tasks"
    explain = (
        "asyncio only reports an exception from a Task when something\n"
        "observes the task — awaits it, gathers it, or attaches a\n"
        "done-callback.  A discarded `ensure_future(...)` that fails\n"
        "(e.g. a redial that keeps losing the race) dies silently and\n"
        "the failure surfaces only as a hung experiment.  Keep a\n"
        "reference and attach an exception sink (`add_done_callback`,\n"
        "`await`, `gather`).  A bare coroutine call that is never\n"
        "awaited does not run at all."
    )

    SPAWNERS = {"create_task", "ensure_future"}

    def check(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> "Iterator[Finding]":
        assert module.tree is not None
        async_defs = {
            node.name
            for node in ast.walk(module.tree)
            if isinstance(node, ast.AsyncFunctionDef)
        }
        for func, _stack in functions_with_enclosing(module.tree):
            yield from self._check_function(module, func, async_defs)
        yield from self._check_body(
            module, module.tree.body, async_defs, top_level=True
        )

    def _check_function(
        self,
        module: ModuleInfo,
        func: FunctionNode,
        async_defs: "Set[str]",
    ) -> "Iterator[Finding]":
        loads: "Set[str]" = {
            node.id
            for node in _own_nodes(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for stmt in _own_statements(func):
            if isinstance(stmt, ast.Expr):
                yield from self._check_discarded(module, stmt, async_defs)
            elif isinstance(stmt, ast.Assign) and self._spawner_call(
                stmt.value
            ):
                names = [
                    target.id
                    for target in stmt.targets
                    if isinstance(target, ast.Name)
                ]
                if names and not any(name in loads for name in names):
                    yield self.finding(
                        module,
                        stmt,
                        f"task assigned to '{names[0]}' is never read"
                        " again: no await, gather, or"
                        " add_done_callback observes its exceptions",
                    )

    def _check_body(
        self,
        module: ModuleInfo,
        body: "Sequence[ast.stmt]",
        async_defs: "Set[str]",
        top_level: bool = False,
    ) -> "Iterator[Finding]":
        for stmt in body:
            if isinstance(stmt, ast.Expr):
                yield from self._check_discarded(module, stmt, async_defs)

    def _check_discarded(
        self, module: ModuleInfo, stmt: ast.Expr, async_defs: "Set[str]"
    ) -> "Iterator[Finding]":
        value = stmt.value
        if self._spawner_call(value):
            assert isinstance(value, ast.Call)
            spawner = attribute_chain(value.func)[-1]
            yield self.finding(
                module,
                stmt,
                f"{spawner}(...) result is discarded: the task's"
                " exceptions are never observed (fire-and-forget);"
                " keep the handle and add an exception sink",
            )
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in async_defs
        ):
            yield self.finding(
                module,
                stmt,
                f"coroutine '{value.func.id}(...)' is never awaited:"
                " the call builds a coroutine object and discards it"
                " without running it",
            )

    def _spawner_call(self, expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        chain = attribute_chain(expr.func)
        return bool(chain) and chain[-1] in self.SPAWNERS


@register_rule
class ReplayDeterminismRule(Rule):
    """R009: process-salted values must not decide fates or keys."""

    id = "R009"
    title = "no salted hashes or unordered values in replay-relevant flow"
    explain = (
        "Python salts str/bytes hashing per process (PYTHONHASHSEED), so\n"
        "hash('request') differs between the coordinator and a replica\n"
        "shell — exactly the PR 4 FaultPlan.fate bug, where a salted\n"
        "hash seeded the fate RNG and cross-process replay silently\n"
        "diverged.  id() is a process address; set/dict iteration order\n"
        "and float accumulation are schedule-dependent.  None of these\n"
        "may flow into fate functions, cache keys, or wire frames.  Use\n"
        "integer arithmetic on explicit ints for anything that feeds a\n"
        "fate or a seed (FaultPlan.fate calls neither hash() nor\n"
        "random), and sorted(...) before iterating."
    )

    SCOPE = (
        "repro/sim",
        "repro/core",
        "repro/consistency",
        "repro/net",
        "repro/apps",
    )

    #: call names that consume replay-relevant values.
    SINKS = {
        "fate",
        "draw_fate",
        "compiled",
        "cache_key",
        "encode_request",
        "encode_response",
        "encode_requests",
        "encode_responses",
        "encode_binary_request",
        "encode_binary_response",
        "encode_binary_requests",
        "encode_binary_responses",
        "encode_frame",
        "Random",
    }

    def check(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> "Iterator[Finding]":
        if not module.in_package_dirs(self.SCOPE):
            return
        assert module.tree is not None
        for func, _stack in functions_with_enclosing(module.tree):
            yield from self._check_function(module, func)

    def _check_function(
        self, module: ModuleInfo, func: FunctionNode
    ) -> "Iterator[Finding]":
        reaching = ReachingDefs(func)
        # direct findings: hash() over a str/bytes-bearing argument, and
        # id() anywhere in scope — both are per-process values.
        reported: "Set[int]" = set()
        for stmt in reaching.statements():
            for node in ast.walk(stmt):
                if id(node) in reported or not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Name):
                    continue
                if node.func.id == "hash" and len(node.args) == 1:
                    salted = self._salted_part(node.args[0], reaching, stmt)
                    if salted is not None:
                        reported.add(id(node))
                        yield self.finding(
                            module,
                            node,
                            f"hash() over {salted} is salted per process"
                            " (PYTHONHASHSEED) and breaks cross-process"
                            " replay; hash an all-int tuple instead",
                        )
                elif node.func.id == "id" and len(node.args) == 1:
                    reported.add(id(node))
                    yield self.finding(
                        module,
                        node,
                        "id() is a process-local address; it can never"
                        " agree across coordinator and replica"
                        " processes",
                    )
        # taint: three independent source families, reported at sinks.
        yield from self._check_taint(
            module,
            reaching,
            self._hash_source(reaching),
            None,
            "a per-process hash()/id() value",
        )
        yield from self._check_taint(
            module,
            reaching,
            lambda expr: False,
            self._iteration_sources(reaching),
            "a value drawn from unsorted set/dict iteration",
        )
        yield from self._check_taint(
            module,
            reaching,
            lambda expr: False,
            self._float_sources(reaching),
            "a float accumulation",
        )

    # -- sources -----------------------------------------------------------

    def _salted_part(
        self, arg: ast.expr, reaching: ReachingDefs, at: ast.AST
    ) -> "Optional[str]":
        """Why hashing ``arg`` is salted, or None when it looks safe."""
        elements = (
            list(arg.elts) if isinstance(arg, (ast.Tuple, ast.List)) else [arg]
        )
        for element in elements:
            for kind in ("str", "bytes"):
                if may_be_kind(element, kind, reaching, at):
                    label = (
                        f"'{element.id}'"
                        if isinstance(element, ast.Name)
                        else f"a {kind} value"
                    )
                    return f"{label} (may be {kind})"
        return None

    def _hash_source(self, reaching: ReachingDefs):
        def is_source(expr: ast.expr) -> bool:
            if not (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
            ):
                return False
            if expr.func.id == "id" and len(expr.args) == 1:
                return True
            if expr.func.id == "hash" and len(expr.args) == 1:
                anchor = self._stmt_of(expr, reaching)
                if anchor is None:
                    return False
                return (
                    self._salted_part(expr.args[0], reaching, anchor)
                    is not None
                )
            return False

        return is_source

    def _iteration_sources(self, reaching: ReachingDefs):
        def stmt_sources(stmt: ast.AST, state: "Set[str]") -> "Set[str]":
            if not isinstance(stmt, (ast.For, ast.AsyncFor)):
                return set()
            unordered = False
            for kind in ("set", "dict"):
                if may_be_kind(stmt.iter, kind, reaching, stmt):
                    unordered = True
            if not unordered:
                return set()
            return {
                node.id
                for node in ast.walk(stmt.target)
                if isinstance(node, ast.Name)
            }

        return stmt_sources

    def _float_sources(self, reaching: ReachingDefs):
        def stmt_sources(stmt: ast.AST, state: "Set[str]") -> "Set[str]":
            if not (
                isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.target, ast.Name)
                and isinstance(stmt.op, (ast.Add, ast.Sub, ast.Mult))
            ):
                return set()
            name = stmt.target.id
            target = ast.Name(id=name, ctx=ast.Load())
            if may_be_kind(target, "float", reaching, stmt) or may_be_kind(
                stmt.value, "float", reaching, stmt
            ):
                return {name}
            return set()

        return stmt_sources

    # -- sinks -------------------------------------------------------------

    def _check_taint(
        self,
        module: ModuleInfo,
        reaching: ReachingDefs,
        is_source,
        stmt_sources,
        description: str,
    ) -> "Iterator[Finding]":
        taint = Taint(reaching, is_source, stmt_sources=stmt_sources)
        for stmt in reaching.statements():
            state = taint.tainted_before(stmt)
            if stmt_sources is not None:
                state = state | stmt_sources(stmt, state)
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                chain = attribute_chain(node.func)
                if not chain or chain[-1] not in self.SINKS:
                    continue
                dirty = self._dirty_argument(node, taint, state)
                if dirty is None:
                    continue
                yield self.finding(
                    module,
                    node,
                    f"{description} flows into {chain[-1]}(...) via"
                    f" '{dirty}'; replay-relevant inputs must be"
                    " deterministic across processes",
                )

    def _dirty_argument(
        self, call: ast.Call, taint: Taint, state: "Set[str]"
    ) -> "Optional[str]":
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for node in ast.walk(arg):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in state
                ):
                    return node.id
        return None

    @staticmethod
    def _stmt_of(
        expr: ast.expr, reaching: ReachingDefs
    ) -> "Optional[ast.AST]":
        for stmt in reaching.statements():
            for node in ast.walk(stmt):
                if node is expr:
                    return stmt
        return None


@register_rule
class TypedErrorRule(Rule):
    """R010: service layers raise repro.errors classes, not builtins."""

    id = "R010"
    title = "raise repro.errors classes, not bare ValueError/RuntimeError"
    explain = (
        "repro.errors defines one class per failure mode, each also\n"
        "subclassing the builtin it historically raised, so `except\n"
        "ValueError` keeps working while every class carries a distinct\n"
        "CLI exit code (its `exit_code`, read by repro.cli.exit_code_for)\n"
        "and sweep tooling can triage failures mechanically.  A bare\n"
        "`raise ValueError` collapses that taxonomy.  Pick the class\n"
        "that matches the failure: InvalidConfig (bad parameters),\n"
        "BoundViolation (outside a bound's domain), WriterBoundExceeded\n"
        "(writer id >= k), WireDecodeError (malformed frames) for caller\n"
        "errors; QuorumUnavailable, StaleShardMap, ShardCapacityExceeded,\n"
        "SessionClosed for environmental failures; ModelViolation for\n"
        "an action the simulation's step model forbids.  New failure\n"
        "modes get a new subclass, with its own exit_code, in\n"
        "repro/errors.py.  An R010 finding is fixed, never suppressed."
    )

    #: the hierarchy itself and its tests may raise anything.
    EXEMPT = ("repro/errors.py",)

    BUILTIN_HINTS = {
        "ValueError": (
            "InvalidConfig, BoundViolation, WriterBoundExceeded, or"
            " WireDecodeError"
        ),
        "RuntimeError": (
            "QuorumUnavailable, StaleShardMap, ShardCapacityExceeded, or"
            " SessionClosed"
        ),
    }

    def check(
        self, module: ModuleInfo, project: ProjectIndex
    ) -> "Iterator[Finding]":
        if module.in_exempt_dirs(self.EXEMPT):
            return
        assert module.tree is not None
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: "Optional[str]" = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name not in self.BUILTIN_HINTS:
                continue
            yield self.finding(
                module,
                node,
                f"bare 'raise {name}' loses the error taxonomy; raise"
                f" a repro.errors class instead (e.g."
                f" {self.BUILTIN_HINTS[name]} — `repro lint --explain"
                " R010` for the full map)",
            )
