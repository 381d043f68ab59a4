"""The built-in ``repro lint`` pattern rules: R001, R002 and R004–R006.

Each rule is a small AST visitor enforcing one piece of the simulation
discipline (docs/LINTING.md ties each rule to the claim it protects):

* R001 — no unseeded randomness in deterministic code;
* R002 — no wall-clock or environment reads in deterministic code;
* R004 — emulation code touches base objects only through the kernel's
  trigger/respond interface (the paper's model assumption);
* R005 — listener subscriptions inside a function must be released in a
  ``finally`` block (or an ``__enter__``/``__exit__`` pair);
* R006 — no iteration over unsorted sets where order can leak into
  scheduler or kernel decisions.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import Finding, ModuleInfo, Rule, register_rule

#: directories holding code that must be deterministic and model-faithful.
#: repro/net is included: fault injection is seed-derived by design (the
#: asyncio backend, the one legitimately nondeterministic module, has a
#: file-level R002 exemption below).
DETERMINISTIC_DIRS = (
    "repro/sim",
    "repro/core",
    "repro/consistency",
    "repro/net",
)


def attribute_chain(node: ast.AST) -> "List[str]":
    """The dotted-name components of an expression, outermost last.

    Descends through attribute access, calls and subscripts, so
    ``self.object_map.server(x).crashed`` yields
    ``["self", "object_map", "server", "crashed"]``.
    """
    parts: "List[str]" = []

    def walk(expr: ast.AST) -> None:
        if isinstance(expr, ast.Attribute):
            walk(expr.value)
            parts.append(expr.attr)
        elif isinstance(expr, ast.Name):
            parts.append(expr.id)
        elif isinstance(expr, ast.Call):
            walk(expr.func)
        elif isinstance(expr, (ast.Subscript, ast.Starred)):
            walk(expr.value)

    walk(node)
    return parts


def import_aliases(tree: ast.Module) -> "Dict[str, str]":
    """Local names bound by ``import <module> as <name>``, to the module.

    Lets a rule see ``rng.choice()`` after ``import random as rng`` as
    the ``random.choice()`` it is.
    """
    return {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.asname
    }


@register_rule
class UnseededRandomnessRule(Rule):
    """R001: the shared module-level RNG breaks seeded replay."""

    id = "R001"
    title = "no unseeded randomness in deterministic code"

    def check(self, module: ModuleInfo) -> "Iterator[Finding]":
        if not module.in_package_dirs(DETERMINISTIC_DIRS):
            return
        assert module.tree is not None
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield self.finding(
                            module,
                            node,
                            f"'from random import {alias.name}' binds the"
                            " shared module-level RNG; seed a"
                            " random.Random(seed) instance instead",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if not (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and aliases.get(func.value.id, func.value.id) == "random"
                ):
                    continue
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        yield self.finding(
                            module,
                            node,
                            "random.Random() without a seed argument is"
                            " non-reproducible; pass an explicit seed",
                        )
                else:
                    yield self.finding(
                        module,
                        node,
                        f"module-level random.{func.attr}() uses the shared"
                        " unseeded RNG; use a seeded random.Random(seed)"
                        " instance",
                    )


@register_rule
class WallClockRule(Rule):
    """R002: wall-clock and environment reads are hidden inputs."""

    id = "R002"
    title = "no wall-clock or environment reads in deterministic code"

    #: modules where wall-clock use is legitimate (orchestration, not
    #: simulation): the experiment engine, the CLI, and the asyncio
    #: transport — the one module that talks to a real network, where
    #: startup and idle-drain deadlines are physical waits, not hidden
    #: simulation inputs (kernel time stays the step counter; see the
    #: module docstring of repro/net/asyncio_transport.py).
    EXEMPT = (
        "repro/exec",
        "repro/cli.py",
        "repro/net/asyncio_transport.py",
    )

    #: forbidden dotted-name suffixes (module alias, attribute).
    FORBIDDEN: "Set[Tuple[str, str]]" = {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
        ("os", "environ"),
        ("os", "getenv"),
        ("os", "urandom"),
    }

    #: from-import names that smuggle the same reads in.
    FORBIDDEN_IMPORTS = {
        "time": {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
        },
        "os": {"environ", "getenv", "urandom"},
    }

    def check(self, module: ModuleInfo) -> "Iterator[Finding]":
        if module.in_exempt_dirs(self.EXEMPT):
            return
        assert module.tree is not None
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                parts = attribute_chain(node)
                if parts:
                    parts[0] = aliases.get(parts[0], parts[0])
                if len(parts) >= 2 and tuple(parts[-2:]) in self.FORBIDDEN:
                    dotted = ".".join(parts[-2:])
                    yield self.finding(
                        module,
                        node,
                        f"{dotted} is a wall-clock/environment read;"
                        " deterministic code must take time and"
                        " configuration as explicit inputs",
                    )
            elif isinstance(node, ast.ImportFrom):
                banned = self.FORBIDDEN_IMPORTS.get(node.module or "")
                if not banned:
                    continue
                for alias in node.names:
                    if alias.name in banned:
                        yield self.finding(
                            module,
                            node,
                            f"'from {node.module} import {alias.name}'"
                            " imports a wall-clock/environment read into"
                            " deterministic code",
                        )


@register_rule
class BaseObjectDisciplineRule(Rule):
    """R004: the paper's base-object access model, made executable.

    Emulation code in ``core/`` may interact with base objects and
    servers only via triggered low-level operations and kernel events —
    never by reaching into the :class:`~repro.sim.server.ObjectMap` to
    mutate state, apply effects, or read private internals.
    """

    id = "R004"
    title = "base objects are accessed only through trigger/respond"

    #: transports relay messages but must not mutate object state either.
    SCOPE = ("repro/core", "repro/net")

    #: ObjectMap methods that mutate the deployment or bypass the kernel.
    MUTATORS = {"crash_server", "add_object", "add_server", "host", "apply"}

    #: kernel delivery-seam methods (request arrival, response delivery).
    #: Only the transport layer may call them: a protocol that marks its
    #: own operations as arrived (or hand-delivers responses) bypasses
    #: the network model the same way a direct apply() bypasses the
    #: object model.
    DELIVERY_SEAM = {"arrive", "deliver"}
    SEAM_SCOPE = ("repro/core",)

    def check(self, module: ModuleInfo) -> "Iterator[Finding]":
        if not module.in_package_dirs(self.SCOPE):
            return
        seam_scoped = module.in_package_dirs(self.SEAM_SCOPE)
        assert module.tree is not None
        for node in ast.walk(module.tree):
            targets: "List[ast.expr]" = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for target in targets:
                if isinstance(target, ast.Attribute):
                    receiver = attribute_chain(target.value)
                    if "object_map" in receiver:
                        yield self.finding(
                            module,
                            target,
                            f"direct mutation of '{target.attr}' behind the"
                            " object map; emulations must go through the"
                            " trigger/respond interface",
                        )
                elif isinstance(target, ast.Subscript):
                    receiver = attribute_chain(target.value)
                    if "object_map" in receiver:
                        yield self.finding(
                            module,
                            target,
                            "direct mutation of an object-map entry;"
                            " emulations must go through the"
                            " trigger/respond interface",
                        )
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                receiver = attribute_chain(node.value)
                if "object_map" in receiver:
                    yield self.finding(
                        module,
                        node,
                        f"access to ObjectMap internals ('{node.attr}');"
                        " use the public delta/image/preimage API",
                    )
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                method = node.func.attr
                if method in self.MUTATORS:
                    receiver = attribute_chain(node.func.value)
                    if "object_map" in receiver:
                        yield self.finding(
                            module,
                            node,
                            f"'{method}()' on the object map bypasses the"
                            " kernel; crashes and effects must flow"
                            " through kernel actions",
                        )
                if seam_scoped and method in self.DELIVERY_SEAM:
                    receiver = attribute_chain(node.func.value)
                    if "kernel" in receiver:
                        yield self.finding(
                            module,
                            node,
                            f"'{method}()' is the kernel's delivery seam;"
                            " only the transport layer (repro/net) may"
                            " mark arrivals or deliver responses",
                        )


@register_rule
class ListenerHygieneRule(Rule):
    """R005: the static form of the PR 2 listener-leak fix."""

    id = "R005"
    title = "add_listener is paired with remove_listener in finally"

    def check(self, module: ModuleInfo) -> "Iterator[Finding]":
        assert module.tree is not None
        # Map every function to its (optional) enclosing class, so an
        # __enter__ subscription can be paired with an __exit__ release.
        functions: "List[Tuple[ast.AST, Optional[ast.ClassDef]]]" = []
        self._collect(module.tree, None, functions)
        for body_owner, enclosing_class in functions:
            yield from self._check_body(module, body_owner, enclosing_class)

    def _collect(self, node, enclosing_class, out) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((child, enclosing_class))
                self._collect(child, None, out)
            elif isinstance(child, ast.ClassDef):
                self._collect(child, child, out)
            else:
                self._collect(child, enclosing_class, out)

    def _check_body(
        self,
        module: ModuleInfo,
        function,
        enclosing_class: "Optional[ast.ClassDef]",
    ) -> "Iterator[Finding]":
        adds = [
            call
            for call in self._own_calls(function, "add_listener")
        ]
        if not adds:
            return
        releases = {
            self._pair_key(call)
            for call in self._finally_calls(function, "remove_listener")
        }
        exit_releases: "Set[Tuple[str, str]]" = set()
        if enclosing_class is not None and function.name == "__enter__":
            for method in enclosing_class.body:
                if (
                    isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and method.name == "__exit__"
                ):
                    exit_releases = {
                        self._pair_key(call)
                        for call in self._own_calls(
                            method, "remove_listener"
                        )
                    }
        for call in adds:
            key = self._pair_key(call)
            if key in releases or key in exit_releases:
                continue
            yield self.finding(
                module,
                call,
                "add_listener without a matching remove_listener in a"
                " finally block (or __enter__/__exit__ pair): listeners"
                " leak across runs and double-count metrics",
            )

    @staticmethod
    def _pair_key(call: ast.Call) -> "Tuple[str, str]":
        receiver = ".".join(attribute_chain(call.func.value))
        argument = ast.dump(call.args[0]) if call.args else ""
        return receiver, argument

    def _own_calls(self, function, method: str) -> "List[ast.Call]":
        """Calls of ``*.method(...)`` in a function, skipping nested defs."""
        found: "List[ast.Call]" = []

        def walk(node) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == method
                ):
                    found.append(child)
                walk(child)

        walk(function)
        return found

    def _finally_calls(self, function, method: str) -> "List[ast.Call]":
        found: "List[ast.Call]" = []

        def walk(node) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                if isinstance(child, ast.Try):
                    for stmt in child.finalbody:
                        for inner in ast.walk(stmt):
                            if (
                                isinstance(inner, ast.Call)
                                and isinstance(inner.func, ast.Attribute)
                                and inner.func.attr == method
                            ):
                                found.append(inner)
                walk(child)

        walk(function)
        return found


@register_rule
class IterationOrderRule(Rule):
    """R006: set iteration order must not leak into decisions."""

    id = "R006"
    title = "no iteration over unsorted sets in scheduler/kernel paths"

    SCOPE = ("repro/sim", "repro/core", "repro/net")

    #: ObjectMap API known to return sets.
    SET_METHODS = {"image", "preimage"}
    SET_ATTRS = {"crashed_servers", "correct_servers"}

    def check(self, module: ModuleInfo) -> "Iterator[Finding]":
        if not module.in_package_dirs(self.SCOPE):
            return
        assert module.tree is not None
        for node in ast.walk(module.tree):
            iterables: "List[ast.expr]" = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp),
            ):
                iterables.extend(gen.iter for gen in node.generators)
            for iterable in iterables:
                reason = self._set_expr(iterable)
                if reason is not None:
                    yield self.finding(
                        module,
                        iterable,
                        f"iterating {reason} has arbitrary order; wrap in"
                        " sorted(...) so scheduler/kernel decisions stay"
                        " deterministic",
                    )

    def _set_expr(self, node: ast.expr) -> "Optional[str]":
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in (
                "set",
                "frozenset",
            ):
                return f"{func.id}(...)"
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.SET_METHODS
            ):
                return f"the set returned by .{func.attr}(...)"
        if isinstance(node, ast.Attribute) and node.attr in self.SET_ATTRS:
            return f"the set-valued .{node.attr}"
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            left = self._set_expr(node.left)
            right = self._set_expr(node.right)
            if left is not None or right is not None:
                return "a set-operation result"
        return None
