"""Verification findings: stable ``RULE*`` codes with counterexamples.

Every finding the delta-rule verifier emits carries a stable code (so
tests, the ``repro-bench --verify-plans`` JSON and CI can match on them),
a severity, the operation kind it was found under, and — for equivalence
violations — the concrete counterexample scenario that reproduces it:
the micro-database rows, the operation SQL and the captured before image.
A counterexample is replayable: feeding it back through
:meth:`~repro.analysis.verify.verifier.DeltaRuleVerifier.replay` executes
the same scenario concretely and must diverge again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ...plain import Record
from ...semantics.diagnostics import Severity

#: Stable finding codes (catalogue: docs/semantic-analysis.md).
#: Rule/recompute divergence with a concrete counterexample database + op.
RULE_DIVERGENCE = "RULE001"
#: Plan classified self-maintainable, but the rule reads captured base
#: state (the apply path demanded before images the plan said it never
#: needs).
RULE_READS_BASE = "RULE002"
#: Hybrid/source-query plan whose source query is never consulted: every
#: in-scope scenario applied from captured information alone.
RULE_SOURCE_UNUSED = "RULE003"
#: Aggregate retraction error on empty or NULL groups.
RULE_AGG_RETRACT = "RULE004"
#: Rule is not idempotent under redelivery, despite the at-least-once
#: transport: re-applying the same op silently lands on a different state.
RULE_NOT_IDEMPOTENT = "RULE005"

#: Codes that refute a plan: the verifier emits these as ERROR and every
#: other code as WARNING.  RULE003/RULE005 are warnings: an
#: over-conservative plan and a rule that relies on exactly-once delivery
#: are both *sound* under the integrator's per-transaction apply, just
#: worth surfacing.
ERROR_CODES = frozenset({RULE_DIVERGENCE, RULE_READS_BASE, RULE_AGG_RETRACT})


@dataclass(frozen=True)
class Counterexample(Record):
    """One concrete scenario that exhibits a finding.

    ``rows`` is the micro-database the base table was seeded with (full
    base-schema width, in insertion order), ``op_sql`` the operation that
    was applied, and ``before_image`` the rows captured for the hybrid
    path (``None`` when the op was delivered lean).  ``dim_rows`` seeds
    the joined dimension table for join views.
    """

    rows: tuple[tuple[Any, ...], ...]
    op_sql: str
    op_kind: str
    before_image: tuple[tuple[Any, ...], ...] | None = None
    dim_rows: tuple[tuple[Any, ...], ...] = ()
    #: What diverged: sorted view state vs sorted recomputed state, or the
    #: apply-path error message for crash counterexamples.
    observed: str = ""
    expected: str = ""
    error: str = ""

    def render(self) -> str:
        lines = [f"db={list(self.rows)!r} op={self.op_sql!r}"]
        if self.before_image is not None:
            lines.append(f"before_image={list(self.before_image)!r}")
        if self.error:
            lines.append(f"error: {self.error}")
        else:
            lines.append(f"rule applied : {self.observed}")
            lines.append(f"recomputed   : {self.expected}")
        return "\n".join(lines)


@dataclass(frozen=True)
class VerifyFinding(Record):
    """One verification finding: code, severity, kind, counterexample."""

    code: str
    severity: Severity
    view: str
    kind: str  # operation kind value ("INSERT"/"UPDATE"/"DELETE"), or "*"
    message: str
    counterexample: Counterexample | None = field(default=None)

    @property
    def refutes(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        head = (
            f"{self.code}: {self.severity.value}: view {self.view!r} "
            f"[{self.kind}]: {self.message}"
        )
        if self.counterexample is None:
            return head
        body = "\n".join(
            "    " + line for line in self.counterexample.render().splitlines()
        )
        return head + "\n" + body

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def refuting(findings: tuple[VerifyFinding, ...]) -> tuple[VerifyFinding, ...]:
    """The subset of ``findings`` that refute the plan (ERROR severity)."""
    return tuple(f for f in findings if f.refutes)
