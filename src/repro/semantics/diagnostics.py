"""Diagnostic records emitted by the semantic checker.

Every diagnostic carries a stable code (``SEM001``...), a severity, a
human-readable message and, when the offending node came from the parser,
the character offset into the statement text.  Codes are stable so tests,
the ``repro-bench --check`` fixture format and CI can match on them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..plain import Record

#: Stable diagnostic codes (the catalogue lives in docs/semantic-analysis.md).
UNKNOWN_TABLE = "SEM001"
UNKNOWN_COLUMN = "SEM002"
AMBIGUOUS_COLUMN = "SEM003"
TYPE_MISMATCH = "SEM004"
ARITY_MISMATCH = "SEM005"
IMPLICIT_COERCION = "SEM006"
NOT_NULL_VIOLATION = "SEM007"
NON_BOOLEAN_PREDICATE = "SEM008"
CONSTANT_FAILURE = "SEM009"

#: The codes that annotate a statement without rejecting it; every other
#: code is an error.
WARNINGS = frozenset({IMPLICIT_COERCION})


class Severity(enum.Enum):
    """Whether a diagnostic rejects the statement or merely annotates it."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic(Record):
    """One finding: code, severity, message and source position."""

    code: str
    severity: Severity
    message: str
    #: Character offset into the statement text, or None when the node was
    #: synthesised (rewrites, view predicates defined programmatically).
    position: int | None = None

    def render(self) -> str:
        where = f" at {self.position}" if self.position is not None else ""
        return f"{self.code}{where}: {self.severity.value}: {self.message}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def has_errors(diagnostics: tuple[Diagnostic, ...] | list[Diagnostic]) -> bool:
    """Whether any diagnostic in the batch is an ERROR."""
    return any(d.severity is Severity.ERROR for d in diagnostics)
