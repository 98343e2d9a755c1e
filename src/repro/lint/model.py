"""Core data model of the linter: findings and per-file context.

A :class:`Finding` is one rule violation at one source location.

A :class:`FileContext` is everything a rule may look at for one file:
the parsed AST, the raw source, the comment map (for ``guarded-by``
markers), and path-scoping helpers (``repro_package`` / ``in_src``) that
rules use to restrict themselves to the packages whose contracts they
enforce.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import PurePath

__all__ = ["Finding", "FileContext", "SUPPRESS_ALL"]

#: Sentinel rule id meaning "suppress every rule on this line".
SUPPRESS_ALL = "all"

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _extract_comments(source: str) -> dict[int, str]:
    """Map line number -> comment text (including the ``#``).

    Tokenization failures (a file that parses but trips the tokenizer is
    vanishingly rare) degrade to "no comments" rather than crashing the
    whole lint run.
    """
    comments: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return comments
    return comments


def _parse_suppressions(comments: dict[int, str]) -> dict[int, frozenset[str]]:
    """Per-line suppressed rule ids from ``# repro-lint: disable=...``."""
    out: dict[int, frozenset[str]] = {}
    for line, text in comments.items():
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        ids = frozenset(
            part.strip() for part in match.group(1).split(",") if part.strip()
        )
        if ids:
            out[line] = ids
    return out


@dataclass
class FileContext:
    """One file's worth of lint input, shared by every rule."""

    path: str
    source: str
    tree: ast.Module
    comments: dict[int, str] = field(default_factory=dict)
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, path: str) -> "FileContext":
        """Parse ``source``; raises ``SyntaxError`` on unparsable input."""
        tree = ast.parse(source, filename=path)
        comments = _extract_comments(source)
        return cls(
            path=PurePath(path).as_posix(),
            source=source,
            tree=tree,
            comments=comments,
            suppressions=_parse_suppressions(comments),
        )

    # ------------------------------------------------------------------ #
    # path scoping helpers
    # ------------------------------------------------------------------ #

    @property
    def parts(self) -> tuple[str, ...]:
        return PurePath(self.path).parts

    @property
    def in_src(self) -> bool:
        """True when the file belongs to the ``repro`` package tree."""
        return "repro" in self.parts

    @property
    def repro_package(self) -> str | None:
        """The first package under ``repro`` (e.g. ``"snn"``), or None."""
        parts = self.parts
        try:
            idx = parts.index("repro")
        except ValueError:
            return None
        rest = parts[idx + 1 :]
        if not rest:
            return None
        if len(rest) == 1:  # a module directly under repro/
            return None
        return rest[0]

    def in_packages(self, *packages: str) -> bool:
        """True when the file lives under ``repro/<pkg>`` for any given pkg."""
        return self.repro_package in packages

    def path_endswith(self, *suffixes: str) -> bool:
        """True when the posix path ends with any of ``suffixes``."""
        return any(self.path.endswith(suffix) for suffix in suffixes)

    def is_suppressed(self, finding: Finding) -> bool:
        ids = self.suppressions.get(finding.line)
        if ids is None:
            return False
        return finding.rule in ids or SUPPRESS_ALL in ids
