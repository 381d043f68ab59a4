"""The ``repro lint`` engine: files, findings, suppressions, rules.

The linter enforces the *simulation discipline* the reproduction's
claims rest on — determinism under a seed and base-object access
through the invocation/response interface of the paper's model (see
``docs/LINTING.md`` for the rule catalog and the rationale).  This
module is the rule-agnostic machinery:

* :class:`Finding` — one diagnostic, with a content *fingerprint* that
  survives line-number shifts (it hashes the rule id, the module's
  package-relative path and the normalized source line, not the line
  number), so code-scanning alerts keep their identity across
  unrelated edits;
* :class:`ModuleInfo` — one parsed module plus its package-relative
  path, which scopes each rule to its directories;
* :class:`Suppressions` — per-line ``# repro-lint: disable=R00x
  <reason>`` directives (on the flagged line or the line above), the
  one way to silence a finding;
* :class:`Rule` and the rule registry — rules self-register via
  :func:`register_rule`; the concrete rules live in
  :mod:`repro.lint.rules` and :mod:`repro.lint.rules_flow`;
* :func:`lint_paths` — collect, check, suppress.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import InvalidConfig

#: rule id for files the parser rejects (not a registered rule: a file
#: that does not parse cannot be checked, which is itself a finding).
PARSE_ERROR = "R000"

_DIRECTIVE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<ids>[A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)"
    r"(?:\s+(?P<reason>\S.*))?"
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic: rule, location, message, stable fingerprint."""

    rule: str
    path: str  # path as passed to the linter (for display)
    relpath: str  # package-relative posix path (stable across checkouts)
    line: int
    col: int
    message: str
    fingerprint: str = ""
    reason: str = ""  # the silencing directive's reason (suppressed only)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> "Dict[str, object]":
        return {
            "rule": self.rule,
            "path": self.path,
            "relpath": self.relpath,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint,
            "reason": self.reason,
        }


class Suppressions:
    """Per-line ``# repro-lint: disable=R00x[,R00y] <reason>`` directives.

    A directive silences matching findings on its own line and on the
    line directly below it (so long statements can carry the directive on
    a comment line above).  A reason string is required by convention —
    the self-cleanliness test rejects reasonless directives in ``src/``.
    """

    def __init__(self, lines: "Sequence[str]") -> None:
        #: line number -> (rule ids, reason or None)
        self.by_line: "Dict[int, Tuple[Set[str], Optional[str]]]" = {}
        for number, text in enumerate(lines, start=1):
            match = _DIRECTIVE.search(text)
            if match is None:
                continue
            ids = {part.strip() for part in match.group("ids").split(",")}
            self.by_line[number] = (ids, match.group("reason"))

    def reason_for(self, rule: str, line: int) -> "Optional[str]":
        """The reason of the directive silencing ``rule`` at ``line``.

        ``None`` when no directive matches; ``""`` for a reasonless one.
        """
        for candidate in (line, line - 1):
            entry = self.by_line.get(candidate)
            if entry is not None and rule in entry[0]:
                return entry[1] or ""
        return None

    def reasonless(self) -> "List[int]":
        """Line numbers of directives that carry no reason string."""
        return sorted(
            number
            for number, (_, reason) in self.by_line.items()
            if not reason
        )


@dataclass
class ModuleInfo:
    """One parsed source file plus its package-relative path."""

    path: Path
    display_path: str
    text: str
    lines: "List[str]"
    tree: "Optional[ast.Module]"
    relpath: str  # "repro/sim/kernel.py", or the bare filename
    suppressions: Suppressions = field(init=False)

    def __post_init__(self) -> None:
        self.suppressions = Suppressions(self.lines)

    # -- path scoping used by the rules -----------------------------------

    def in_package_dirs(self, prefixes: "Tuple[str, ...]") -> bool:
        """True when the module lives under one of the package prefixes.

        Files outside the ``repro`` package (rule-fixture files in test
        temp dirs) count as in scope for every rule, so fixtures exercise
        rules without replicating the package layout.
        """
        if not self._in_package:
            return True
        return self._under(prefixes)

    def in_exempt_dirs(self, prefixes: "Tuple[str, ...]") -> bool:
        """True when the module is exempt (only meaningful in-package)."""
        return self._in_package and self._under(prefixes)

    @property
    def _in_package(self) -> bool:
        return self.relpath.startswith("repro/") or self.relpath == "repro"

    def _under(self, prefixes: "Tuple[str, ...]") -> bool:
        return any(
            self.relpath == prefix or self.relpath.startswith(prefix + "/")
            for prefix in prefixes
        )

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


def _package_relpath(path: Path) -> str:
    """The path from the last ``repro`` component on, posix-style.

    Fixture files outside any ``repro`` directory fall back to their
    bare filename.
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return path.name


def load_module(path: Path, display_path: "Optional[str]" = None) -> ModuleInfo:
    """Read and parse one file (``tree`` is None on syntax errors)."""
    text = path.read_text(encoding="utf-8")
    try:
        tree: "Optional[ast.Module]" = ast.parse(text, filename=str(path))
    except SyntaxError:
        tree = None
    return ModuleInfo(
        path=path,
        display_path=display_path or str(path),
        text=text,
        lines=text.splitlines(),
        tree=tree,
        relpath=_package_relpath(path),
    )


# -- rules ------------------------------------------------------------------

#: rule id -> rule instance, in registration order.
RULES: "Dict[str, Rule]" = {}


def register_rule(cls: type) -> type:
    """Class decorator: instantiate and register a :class:`Rule`."""
    rule = cls()
    if rule.id in RULES:
        raise InvalidConfig(f"duplicate rule id {rule.id}")
    RULES[rule.id] = rule
    return cls


class Rule:
    """Base class: one id, one message family, one AST pass."""

    id = ""
    title = ""

    def check(self, module: ModuleInfo) -> "Iterator[Finding]":
        raise NotImplementedError

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.display_path,
            relpath=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def fingerprint(relpath: str, rule: str, line_text: str, occurrence: int) -> str:
    """Content hash identifying a finding independent of line numbers."""
    blob = f"{rule}::{relpath}::{line_text.strip()}::{occurrence}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


# -- running ----------------------------------------------------------------


def collect_files(paths: "Iterable[Path | str]") -> "List[Path]":
    """Expand files/directories into a sorted, de-duplicated .py list."""
    seen: "Set[Path]" = set()
    ordered: "List[Path]" = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            candidates = sorted(
                p
                for p in entry.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        elif entry.is_file():
            candidates = [entry]
        else:
            raise FileNotFoundError(f"no such file or directory: {entry}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                ordered.append(candidate)
    return ordered


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: "List[Finding]"  # every finding, pre-suppression
    active: "List[Finding]"  # findings that fail the run
    suppressed: "List[Finding]"  # silenced by inline directives
    files: int = 0

    @property
    def ok(self) -> bool:
        return not self.active


def run_rules(
    modules: "Sequence[ModuleInfo]",
    rule_ids: "Optional[Iterable[str]]" = None,
) -> "List[Finding]":
    """Run the (selected) rules over parsed modules; assign fingerprints."""
    # Import for the side effect of registering the built-in rules.
    import repro.lint.rules  # noqa: F401
    import repro.lint.rules_flow  # noqa: F401

    selected = [
        RULES[rule_id]
        for rule_id in (rule_ids if rule_ids is not None else RULES)
    ]
    findings: "List[Finding]" = []
    for module in modules:
        if module.tree is None:
            findings.append(
                Finding(
                    rule=PARSE_ERROR,
                    path=module.display_path,
                    relpath=module.relpath,
                    line=1,
                    col=1,
                    message="file does not parse",
                )
            )
            continue
        for rule in selected:
            findings.extend(rule.check(module))
    findings.sort(key=lambda f: (f.relpath, f.line, f.col, f.rule))
    occurrences: "Dict[Tuple[str, str, str], int]" = {}
    stamped: "List[Finding]" = []
    for item in findings:
        module = next(
            (m for m in modules if m.display_path == item.path), None
        )
        text = module.line_text(item.line) if module else ""
        key = (item.rule, item.relpath, text.strip())
        occurrence = occurrences.get(key, 0)
        occurrences[key] = occurrence + 1
        stamped.append(
            replace(
                item,
                fingerprint=fingerprint(
                    item.relpath, item.rule, text, occurrence
                ),
            )
        )
    return stamped


def _split_suppressed(
    modules: "Sequence[ModuleInfo]", findings: "Sequence[Finding]"
) -> "Tuple[List[Finding], List[Finding]]":
    """Partition findings into (unsuppressed, suppressed) via directives."""
    by_display = {module.display_path: module for module in modules}
    unsuppressed: "List[Finding]" = []
    suppressed: "List[Finding]" = []
    for item in findings:
        module = by_display.get(item.path)
        reason = (
            module.suppressions.reason_for(item.rule, item.line)
            if module is not None
            else None
        )
        if reason is None:
            unsuppressed.append(item)
        else:
            suppressed.append(replace(item, reason=reason))
    return unsuppressed, suppressed


def lint_paths(
    paths: "Iterable[Path | str]",
    rule_ids: "Optional[Iterable[str]]" = None,
) -> LintResult:
    """Lint files/directories; split findings by inline suppressions."""
    files = collect_files(paths)
    modules = [load_module(path) for path in files]
    findings = run_rules(modules, rule_ids)
    active, suppressed = _split_suppressed(modules, findings)
    return LintResult(
        findings=findings,
        active=active,
        suppressed=suppressed,
        files=len(files),
    )
