"""repro.lint — AST-based invariant checker for this codebase's contracts.

The rule set mechanically enforces what DESIGN.md promises in prose:
dtype discipline on hot-path array allocation (RPL001), wall-clock reads
only in clock seams (RPL002), lock discipline over ``# guarded-by:``
annotated state (RPL003), fault-point names pinned to ``FAULT_POINTS``
(RPL004), frozen ``T2FSNN.run``/``serve`` facades (RPL005), ``__all__``
hygiene (RPL006), and the reliability-layer exception policy (RPL007).

Run it as ``python -m repro.lint [paths] [--strict]``; see DESIGN.md §15
for the rule catalogue, suppression syntax, and third-party rule
registration.
"""

from repro.lint.engine import iter_python_files, lint_file, lint_paths, lint_text
from repro.lint.model import FileContext, Finding
from repro.lint.registry import (
    RULE_FACTORIES,
    Rule,
    available_rules,
    make_rules,
    register_rule,
    rule_descriptions,
)

# Importing the rules package registers every built-in rule.
from repro.lint import rules as _rules  # noqa: F401

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "RULE_FACTORIES",
    "register_rule",
    "make_rules",
    "available_rules",
    "rule_descriptions",
    "lint_text",
    "lint_file",
    "lint_paths",
    "iter_python_files",
]
