"""``repro lint`` — a simulation-discipline static analyzer.

AST-based, codebase-specific rules that make the reproduction's model
assumptions machine-checked instead of conventional: determinism under a
seed (R001/R002/R006), the paper's base-object access discipline
(R004), listener hygiene (R005), and the dataflow-aware v2 families —
event-loop discipline (R007), fire-and-forget tasks (R008),
replay-determinism taint (R009), and typed-error discipline (R010).
Emulation-protocol conformance is not a lint rule: the registry's
classes are checked at runtime against the ``runtime_checkable``
:class:`~repro.core.emulation.Emulation` protocol
(``tests/core/test_emulation_protocol.py``).  A deliberate finding is
silenced in place by a ``# repro-lint: disable=R00x <reason>``
directive, the one suppression mechanism.  See ``docs/LINTING.md`` for
the catalog and the suppression syntax, and ``repro lint --help`` for
the CLI (``--format sarif``, ``--explain``, ``--list-rules``).
"""

from repro.lint.engine import (
    RULES,
    Finding,
    LintResult,
    ModuleInfo,
    Rule,
    collect_files,
    lint_paths,
    load_module,
    register_rule,
)
from repro.lint.report import (
    render_explain,
    render_json,
    render_rules,
    render_text,
)
from repro.lint import rules  # noqa: F401 — registers the pattern rules
from repro.lint.rules_flow import (  # noqa: F401 — registers R007-R010
    functions_with_enclosing,
)
from repro.lint.sarif import render_sarif, sarif_payload, validate_sarif

__all__ = [
    "Finding",
    "LintResult",
    "ModuleInfo",
    "RULES",
    "Rule",
    "collect_files",
    "functions_with_enclosing",
    "lint_paths",
    "load_module",
    "register_rule",
    "render_explain",
    "render_json",
    "render_rules",
    "render_sarif",
    "render_text",
    "sarif_payload",
    "validate_sarif",
]
