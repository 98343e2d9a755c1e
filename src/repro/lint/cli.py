"""Command line for ``python -m repro.lint``.

Exit codes: 0 — clean (or advisory mode, which always reports but never
fails); 1 — ``--strict`` and at least one finding; 2 — usage error (bad
path, unknown rule id).
"""

from __future__ import annotations

import argparse
import sys

from repro.lint.engine import lint_paths
from repro.lint.registry import make_rules, rule_descriptions

__all__ = ["main", "build_parser"]

_DEFAULT_PATHS = ["src", "tests"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant checker for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=_DEFAULT_PATHS,
        help=f"files or directories to lint (default: {' '.join(_DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on any finding",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all registered)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, name, description in rule_descriptions():
            print(f"{rule_id}  {name:<22} {description}")
        return 0

    select = None
    if args.select:
        select = [rid.strip() for rid in args.select.split(",") if rid.strip()]
    try:
        rules = make_rules(select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        findings = lint_paths(args.paths, rules)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for finding in findings:
        print(finding.format())
    if findings:
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"{len(findings)} {noun}")
        if args.strict:
            return 1
    return 0
