"""Plan certificates and the pay-once certificate cache.

A :class:`PlanCertificate` is the durable outcome of one bounded
model-checking pass over a compiled maintenance plan: the verdict, the
findings, and the fingerprints that scope its validity — the **view SQL
hash** (a canonical rendering of the view definition plus the compiled
rules and the scope bounds) and the **schema fingerprint** of the base
(and joined) table.  Re-verifying the same (view, schema) pair is a
cache hit: the :class:`CertificateCache` is keyed by exactly that pair,
so verification is pay-once per process — the integrator's pre-flight
and repeated ``repro-bench --verify-plans`` runs reuse the stored
certificate at zero virtual-time cost.

Any change that could invalidate the proof changes the key: editing the
view definition or the compiled rules changes the SQL hash; migrating
the base table changes the schema fingerprint; widening or narrowing the
scope changes the hash too (the scope signature is folded in).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ...engine.schema import TableSchema
from ...plain import plain
from .domain import ScopeConfig
from .findings import VerifyFinding, refuting

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.selfmaint import ViewDefinition
    from ...semantics.planner import MaintenancePlan
    from ...warehouse.aggregates import AggregateViewDefinition

#: Certificate verdicts.
VERIFIED = "VERIFIED"
REFUTED = "REFUTED"


def view_sql(definition: "ViewDefinition | AggregateViewDefinition") -> str:
    """A canonical SQL-ish rendering of a view definition, for hashing."""
    # Duck-typed over the two definition dataclasses: SPJ views have
    # ``columns``; aggregate views have ``group_by``/``aggregates``.
    if hasattr(definition, "group_by"):
        aggregates = ", ".join(
            f"{spec.function}({spec.argument if spec.argument else '*'})"
            for spec in definition.aggregates
        )
        text = (
            f"SELECT {', '.join(definition.group_by)}, {aggregates} "
            f"FROM {definition.base_table}"
        )
        if definition.predicate:
            text += f" WHERE {definition.predicate}"
        return text + f" GROUP BY {', '.join(definition.group_by)}"
    text = f"SELECT {', '.join(definition.columns)} FROM {definition.base_table}"
    join = definition.join
    if join is not None:
        text += (
            f" JOIN {join.table} ON {join.left_column} = {join.right_column}"
            f" PROJECT ({', '.join(join.columns)})"
            f" LOCAL={join.available_at_warehouse}"
        )
    if definition.predicate:
        text += f" WHERE {definition.predicate}"
    if definition.key_column:
        text += f" KEY {definition.key_column}"
    return text


def view_sql_hash(
    definition: "ViewDefinition | AggregateViewDefinition",
    plan: "MaintenancePlan",
    scope: ScopeConfig,
    version: int,
) -> str:
    """Hash of everything the proof depends on besides the schema."""
    rules = ";".join(
        f"{r.kind.value}:{r.action.value}:{int(r.needs_before_image)}"
        for r in plan.rules
    )
    subject = "|".join(
        (
            view_sql(definition),
            plan.classification.value,
            rules,
            repr(scope.signature()),
            f"v{version}",
        )
    )
    return hashlib.sha256(subject.encode("utf-8")).hexdigest()


def schema_fingerprint(
    schema: TableSchema, dim_schema: TableSchema | None = None
) -> str:
    subject = repr(schema.signature())
    if dim_schema is not None:
        subject += "|" + repr(dim_schema.signature())
    return hashlib.sha256(subject.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PlanCertificate:
    """The outcome of verifying one maintenance plan in the small scope."""

    view: str
    verdict: str  # VERIFIED | REFUTED
    view_sql_hash: str
    schema_fingerprint: str
    findings: tuple[VerifyFinding, ...]
    #: Scenarios executed, total and per operation kind.
    scenarios: int
    scenarios_by_kind: tuple[tuple[str, int], ...]
    databases: int
    #: Enumeration cut by the scope caps ({} when exhaustive within scope).
    truncated: tuple[tuple[str, int], ...]
    scope: ScopeConfig = field(default_factory=ScopeConfig)

    @property
    def verified(self) -> bool:
        return self.verdict == VERIFIED

    @property
    def stamp(self) -> str:
        """Short certificate stamp for integration reports."""
        return f"{self.view_sql_hash[:12]}:{self.verdict}"

    @property
    def key(self) -> tuple[str, str]:
        return (self.view_sql_hash, self.schema_fingerprint)

    def render(self) -> str:
        lines = [
            f"view {self.view!r}: {self.verdict} "
            f"({self.scenarios} scenarios over {self.databases} databases; "
            f"certificate {self.stamp})"
        ]
        lines.extend(finding.render() for finding in self.findings)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "view": self.view,
            "verdict": self.verdict,
            "view_sql_hash": self.view_sql_hash,
            "schema_fingerprint": self.schema_fingerprint,
            "stamp": self.stamp,
            "scenarios": self.scenarios,
            "scenarios_by_kind": dict(self.scenarios_by_kind),
            "databases": self.databases,
            "truncated": dict(self.truncated),
            "scope": plain(self.scope),
            "findings": plain(self.findings),
        }


def verdict_for(findings: tuple[VerifyFinding, ...]) -> str:
    """VERIFIED unless some finding refutes the plan (ERROR severity)."""
    return REFUTED if refuting(findings) else VERIFIED


class CertificateCache:
    """Pay-once store keyed by (view SQL hash, schema fingerprint)."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], PlanCertificate] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, sql_hash: str, schema_fp: str
    ) -> PlanCertificate | None:
        certificate = self._entries.get((sql_hash, schema_fp))
        if certificate is not None:
            self.hits += 1
        else:
            self.misses += 1
        return certificate

    def store(self, certificate: PlanCertificate) -> PlanCertificate:
        self._entries[certificate.key] = certificate
        return certificate

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: Process-wide default cache: every integrator construction and bench
#: pass that does not bring its own cache shares this one, so each
#: distinct (view, schema) pair is verified at most once per process.
DEFAULT_CERTIFICATE_CACHE = CertificateCache()
