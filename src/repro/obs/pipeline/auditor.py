"""The continuous pipeline auditor: conservation, ordering, state digests.

:class:`PipelineAuditor` closes the loop the paper leaves implicit — that
what capture extracted is *exactly* what the warehouse applied.  From the
recorder's lineage it proves **conservation**::

    captured = applied + pruned + absorbed-by-compaction + rejected

(with nothing left in flight for a quiesced pipeline), checks that no op
was applied twice without an at-least-once redelivery to explain it, that
applies never reordered ops within a source transaction or across a
conflict component, and — via :class:`StateDigest` — that the warehouse
row state matches an incrementally maintained expected digest.  Every
violation is a positioned :class:`AuditFinding` naming the correlation
id, sequence and pipeline stage where the trail ends.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ...plain import Record, plain
from .recorder import OpLineage, PipelineRecorder

#: Finding severities, in decreasing order of alarm.
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class AuditFinding(Record):
    """One positioned audit violation (or notable observation)."""

    code: str
    severity: str
    message: str
    correlation_id: str | None = None
    source: str = ""
    table: str = ""
    sequence: int | None = None
    #: The furthest pipeline stage that saw the op (where the trail ends).
    stage: str | None = None

    def render(self) -> str:
        position = self.correlation_id or "<pipeline>"
        where = f" at stage '{self.stage}'" if self.stage else ""
        return f"{self.code} [{self.severity}] {position}{where}: {self.message}"


@dataclass
class AuditReport:
    """Outcome of one auditor pass."""

    findings: list[AuditFinding] = field(default_factory=list)
    conservation: dict[str, int] = field(default_factory=dict)
    #: Digest comparisons by position name -> matched.
    digest_checks: dict[str, bool] = field(default_factory=dict)

    @property
    def errors(self) -> list[AuditFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def verdict(self) -> str:
        """``CLEAN`` when no error-severity finding survived."""
        return "CLEAN" if not self.errors else "FINDINGS"

    @property
    def conservation_holds(self) -> bool:
        c = self.conservation
        return bool(c) and c["captured"] == (
            c["applied"] + c["pruned"] + c["absorbed"] + c["rejected"]
        ) and c["in_flight"] == 0

    def add(self, finding: AuditFinding) -> None:
        self.findings.append(finding)

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "conservation": self.conservation,
            "conservation_holds": self.conservation_holds,
            "digest_checks": self.digest_checks,
            "findings": plain(self.findings),
        }


class StateDigest:
    """Order-independent, incrementally maintainable digest of row state.

    Each row hashes to a fixed 64-bit value; the digest is the XOR of the
    member hashes plus a row count.  XOR is its own inverse, so ``add`` on
    apply and ``remove`` on delete maintain the digest in O(1) per row —
    the "incrementally-maintained expected digest" the auditor compares
    warehouse scans against.  Multisets collide under plain XOR (a row
    present twice cancels out), which the row count disambiguates for the
    duplicate-row shapes the pipeline can actually produce.
    """

    __slots__ = ("_acc", "_count")

    def __init__(self) -> None:
        self._acc = 0
        self._count = 0

    @staticmethod
    def _hash_row(row: Sequence[Any]) -> int:
        canonical = "\x1f".join(repr(value) for value in row)
        digest = hashlib.sha256(canonical.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def add(self, row: Sequence[Any]) -> None:
        self._acc ^= self._hash_row(row)
        self._count += 1

    def remove(self, row: Sequence[Any]) -> None:
        self._acc ^= self._hash_row(row)
        self._count -= 1

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[Any]]) -> "StateDigest":
        digest = cls()
        for row in rows:
            digest.add(row)
        return digest

    @property
    def value(self) -> tuple[int, int]:
        return (self._count, self._acc)

    def hexdigest(self) -> str:
        return f"{self._count}:{self._acc:016x}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateDigest):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StateDigest({self.hexdigest()})"


class PipelineAuditor:
    """Proves the recorder's lineage conserves, orders and reproduces."""

    def __init__(self, recorder: PipelineRecorder) -> None:
        self._recorder = recorder

    def audit(
        self, conflict_components: Iterable[Iterable[int]] | None = None
    ) -> AuditReport:
        """One full pass over the lineage; digests are checked separately.

        ``conflict_components`` (collections of source txn ids, as produced
        by the analyzer's conflict graph) extends the reorder check across
        component members: a batched apply may merge transaction
        boundaries but must never reorder ops *within* a component.
        """
        report = AuditReport(conservation=self._recorder.conservation())
        lineage = self._recorder.lineage
        for record in lineage.values():
            self._check_gap(report, record)
            self._check_duplicate(report, record)
            self._check_absorber(report, lineage, record)
        self._check_order(report, lineage.values())
        if conflict_components is not None:
            self._check_component_order(report, conflict_components)
        return report

    # -------------------------------------------------------------- per-op
    def _check_gap(self, report: AuditReport, record: OpLineage) -> None:
        if record.terminal is not None:
            return
        report.add(
            AuditFinding(
                code="AUD001",
                severity="error",
                message=(
                    "captured op never settled: not applied, pruned, "
                    "absorbed or rejected (lost in the pipeline)"
                ),
                correlation_id=record.correlation_id,
                source=record.source,
                table=record.table,
                sequence=record.sequence,
                stage=record.last_stage,
            )
        )

    def _check_duplicate(self, report: AuditReport, record: OpLineage) -> None:
        extra_applies = len(record.applied_at) - 1
        if extra_applies <= 0:
            return
        if record.redeliveries >= extra_applies:
            report.add(
                AuditFinding(
                    code="AUD005",
                    severity="info",
                    message=(
                        f"applied {len(record.applied_at)} times, explained "
                        f"by {record.redeliveries} at-least-once "
                        "redelivery(ies); apply must be idempotent"
                    ),
                    correlation_id=record.correlation_id,
                    source=record.source,
                    table=record.table,
                    sequence=record.sequence,
                    stage="applied",
                )
            )
            return
        report.add(
            AuditFinding(
                code="AUD002",
                severity="error",
                message=(
                    f"applied {len(record.applied_at)} times with only "
                    f"{record.redeliveries} recorded redelivery(ies) — "
                    "an unexplained duplicate apply"
                ),
                correlation_id=record.correlation_id,
                source=record.source,
                table=record.table,
                sequence=record.sequence,
                stage="applied",
            )
        )

    def _check_absorber(
        self,
        report: AuditReport,
        lineage: dict[str, OpLineage],
        record: OpLineage,
    ) -> None:
        if record.absorbed_at is None or record.absorbed_by is None:
            return
        absorber = lineage.get(record.absorbed_by)
        if absorber is None or absorber.terminal in (None, "rejected"):
            stage = absorber.last_stage if absorber is not None else None
            report.add(
                AuditFinding(
                    code="AUD006",
                    severity="error",
                    message=(
                        f"absorbed into {record.absorbed_by} "
                        f"(rule {record.absorbed_rule}), but the absorber "
                        "never settled — the folded effect is lost"
                    ),
                    correlation_id=record.correlation_id,
                    source=record.source,
                    table=record.table,
                    sequence=record.sequence,
                    stage=stage,
                )
            )

    # ------------------------------------------------------------- ordering
    def _check_order(
        self, report: AuditReport, records: Iterable[OpLineage]
    ) -> None:
        """Applied ops of one source transaction must apply in capture order."""
        by_txn: dict[tuple[str, int], list[OpLineage]] = {}
        for record in records:
            if record.applied_at:
                by_txn.setdefault((record.source, record.txn_id), []).append(record)
        for (_source, _txn_id), members in sorted(by_txn.items()):
            self._flag_inversions(report, members, scope="source transaction")

    def _check_component_order(
        self,
        report: AuditReport,
        conflict_components: Iterable[Iterable[int]],
    ) -> None:
        by_txn: dict[int, list[OpLineage]] = {}
        for record in self._recorder.lineage.values():
            if record.applied_at:
                by_txn.setdefault(record.txn_id, []).append(record)
        for component in conflict_components:
            members: list[OpLineage] = []
            for txn_id in component:
                members.extend(by_txn.get(txn_id, []))
            # Cross-source sequences are not comparable; check per source.
            by_source: dict[str, list[OpLineage]] = {}
            for record in members:
                by_source.setdefault(record.source, []).append(record)
            for source_members in by_source.values():
                self._flag_inversions(
                    report, source_members, scope="conflict component"
                )

    def _flag_inversions(
        self, report: AuditReport, members: list[OpLineage], scope: str
    ) -> None:
        ordered = sorted(members, key=lambda r: r.apply_order[0])
        for earlier, later in zip(ordered, ordered[1:]):
            if later.sequence < earlier.sequence:
                report.add(
                    AuditFinding(
                        code="AUD003",
                        severity="error",
                        message=(
                            f"applied before op {earlier.sequence} of the "
                            f"same {scope} despite being captured earlier — "
                            "conflicting ops were reordered"
                        ),
                        correlation_id=later.correlation_id,
                        source=later.source,
                        table=later.table,
                        sequence=later.sequence,
                        stage="applied",
                    )
                )

    # -------------------------------------------------------------- digests
    def check_digest(
        self,
        report: AuditReport,
        position: str,
        expected: StateDigest,
        actual: StateDigest,
    ) -> bool:
        """Compare warehouse state against the expected digest; record it."""
        matched = expected == actual
        report.digest_checks[position] = matched
        if not matched:
            report.add(
                AuditFinding(
                    code="AUD004",
                    severity="error",
                    message=(
                        f"state divergence at {position}: expected digest "
                        f"{expected.hexdigest()}, warehouse has "
                        f"{actual.hexdigest()}{self._race_correlation()}"
                    ),
                    correlation_id=None,
                    stage=position,
                )
            )
        return matched

    def _race_correlation(self) -> str:
        """Fold sanitizer race records into a digest-divergence message.

        When the interference sanitizer observed unordered conflicting
        accesses at apply time, a digest mismatch is almost certainly the
        race taking effect — so AUD004 names the suspect op pair instead
        of leaving two independent findings for the operator to join.
        """
        races = self._recorder.races
        if not races:
            return ""
        first = races[0]
        more = f" (+{len(races) - 1} more)" if len(races) > 1 else ""
        return (
            "; runtime interference correlates: "
            f"{first.code} {first.op_a} × {first.op_b} "
            f"on {first.table}{more}"
        )
