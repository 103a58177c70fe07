"""Static serializability proofs for proposed parallel schedules.

:func:`certify` takes a window of captured transactions, the conflict
graph that scheduling was based on, and a proposed :class:`LaneSchedule`.
It reads the window's conflicting transaction pairs, and every other
verdict, from the graph's
:class:`~repro.analysis.conflict.CommutationRecord` — the same sweep and
``commutes`` proofs the graph's edges were drawn from, made there on first
read when the graph never asked — and never reads the graph's edges or
components: a schedule is judged against the op pairs themselves, not
against what the scheduler concluded from them.  A schedule is
``CERTIFIED`` only when:

* every conflicting transaction pair preserves source (capture) order:
  conflicting pairs may not straddle lanes (``RACE001``) and may not be
  inverted within a lane (``RACE002``);
* every in-group operation reordering (e.g. a coalescer moving an
  effect earlier) is backed by a commutativity proof (``RACE003``);
* compaction barriers — non-``DETERMINISTIC`` statements and hybrid ops
  carrying a before image — are never crossed (``RACE004``);
* the schedule covers the window exactly: no transaction missing,
  duplicated, or unknown (``RACE005``), and none outside the conflict
  graph (``RACE006``).

Each failed obligation becomes a positioned :class:`RaceFinding` with the
offending op pair's correlation ids and, for cross-lane races, a concrete
*witness interleaving* — an executable op order the schedule admits that
differs from the serial order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ...core.opdelta import OpDelta, OpDeltaTransaction
from ..conflict import CommutationRecord, ConflictGraph
from ..safety import Determinism, statement_determinism
from .schedule import LaneSchedule


def correlation_id(op: OpDelta) -> str:
    """The op's lineage correlation id, synthesised when not stamped."""
    if op.lineage_id:
        return op.lineage_id
    return f"txn{op.txn_id}:op{op.sequence}"


@dataclass(frozen=True)
class RaceFinding:
    """One violated serializability obligation, positioned on an op pair."""

    code: str
    message: str
    table: str
    txn_a: int
    txn_b: int
    op_a: str
    op_b: str
    lane_a: int | None = None
    lane_b: int | None = None
    #: Correlation ids of a concrete admitted interleaving that differs
    #: from the serial order (cross-lane races only).
    witness: tuple[str, ...] = ()

    def render(self) -> str:
        lanes = ""
        if self.lane_a is not None or self.lane_b is not None:
            lanes = f" [lane {self.lane_a} vs lane {self.lane_b}]"
        line = (
            f"{self.code} {self.table}: {self.op_a} vs {self.op_b}"
            f"{lanes} — {self.message}"
        )
        if self.witness:
            line += f"\n  witness interleaving: {' -> '.join(self.witness)}"
        return line

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "table": self.table,
            "txn_a": self.txn_a,
            "txn_b": self.txn_b,
            "op_a": self.op_a,
            "op_b": self.op_b,
            "lane_a": self.lane_a,
            "lane_b": self.lane_b,
            "witness": list(self.witness),
        }


@dataclass
class Certificate:
    """The certifier's verdict plus the statistics behind it."""

    lanes: int
    transactions: int
    operations: int
    pairs_checked: int
    conflicting_pairs: int
    reorder_checks: int = 0
    findings: tuple[RaceFinding, ...] = field(default_factory=tuple)

    @property
    def commuting_pairs(self) -> int:
        return self.pairs_checked - self.conflicting_pairs

    @property
    def certified(self) -> bool:
        return not self.findings

    @property
    def verdict(self) -> str:
        return "CERTIFIED" if self.certified else "REJECTED"

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "lanes": self.lanes,
            "transactions": self.transactions,
            "operations": self.operations,
            "pairs_checked": self.pairs_checked,
            "conflicting_pairs": self.conflicting_pairs,
            "commuting_pairs": self.commuting_pairs,
            "reorder_checks": self.reorder_checks,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def _is_barrier(op: OpDelta) -> bool:
    """Compaction barriers: hybrid ops and non-deterministic statements."""
    if op.before_image is not None:
        return True
    return statement_determinism(op.statement) is not Determinism.DETERMINISTIC


def certify(
    groups: Sequence[OpDeltaTransaction],
    graph: ConflictGraph,
    schedule: LaneSchedule,
) -> Certificate:
    """Statically prove ``schedule`` equivalent to the serial order.

    Every verdict is read from ``graph.record``, under the catalogs and
    the ``structural`` setting the graph was built with; the graph's
    edges and components are never read.
    """
    groups = list(groups)
    record = graph.record
    findings = _check_coverage(groups, graph, schedule)
    # Source order is the window order: capture commits transactions
    # in serial order, so groups[i] precedes groups[j] at the source
    # whenever i < j.
    conflicts = record.conflicts(groups)
    for i, j, witness_pair in conflicts:
        findings.extend(
            _check_conflicting_pair(
                groups[i], groups[j], witness_pair, groups, schedule
            )
        )

    reorder_checks = 0
    for group in groups:
        checked, reorder_findings = _check_group_order(group, record)
        reorder_checks += checked
        findings.extend(reorder_findings)

    certificate = Certificate(
        lanes=schedule.lane_count,
        transactions=len(groups),
        operations=sum(len(g.operations) for g in groups),
        pairs_checked=len(groups) * (len(groups) - 1) // 2,
        conflicting_pairs=len(conflicts),
        reorder_checks=reorder_checks,
        findings=tuple(findings),
    )
    registry = record.metrics
    registry.counter("analysis.certify.schedules_checked").inc()
    if certificate.findings:
        registry.counter("analysis.certify.findings_raised").inc(
            len(certificate.findings)
        )
    return certificate


# -- individual obligations ---------------------------------------


def _check_coverage(
    groups: Sequence[OpDeltaTransaction],
    graph: ConflictGraph,
    schedule: LaneSchedule,
) -> list[RaceFinding]:
    window_ids = [g.txn_id for g in groups]
    scheduled = schedule.transaction_ids
    in_window, in_graph, in_schedule = (
        set(window_ids), set(graph.txn_ids), set(scheduled)
    )
    table = groups[0].operations[0].table if groups and groups[0].operations else ""
    problems = [
        ("RACE005", txn_id, f"transaction {txn_id} is in the window but "
         "missing from the schedule")
        for txn_id in window_ids if txn_id not in in_schedule
    ]
    seen: set[int] = set()
    for txn_id in scheduled:
        if txn_id in seen:
            problems.append(("RACE005", txn_id,
                             f"transaction {txn_id} is scheduled more than once"))
        seen.add(txn_id)
        if txn_id not in in_window:
            problems.append(("RACE005", txn_id, f"scheduled transaction "
                             f"{txn_id} is not in the window"))
        if txn_id not in in_graph:
            problems.append(("RACE006", txn_id, f"scheduled transaction {txn_id} "
                             "is outside the conflict graph — its conflicts "
                             "were never analyzed"))
    return [
        RaceFinding(
            code=code, message=message, table=table or "", txn_a=txn_id,
            txn_b=txn_id, op_a=f"txn{txn_id}", op_b=f"txn{txn_id}",
        )
        for code, txn_id, message in problems
    ]


def _check_conflicting_pair(
    early: OpDeltaTransaction,
    late: OpDeltaTransaction,
    witness_pair: tuple[OpDelta, OpDelta],
    groups: Sequence[OpDeltaTransaction],
    schedule: LaneSchedule,
) -> list[RaceFinding]:
    op_a, op_b = witness_pair
    pos_a = schedule.position_of(early.txn_id)
    pos_b = schedule.position_of(late.txn_id)
    if pos_a is None or pos_b is None:
        return []  # already reported as RACE005
    lane_a, slot_a = pos_a
    lane_b, slot_b = pos_b
    if lane_a != lane_b:
        witness = _witness_interleaving(
            groups, schedule, late, op_b, op_a
        )
        return [
            RaceFinding(
                code="RACE001",
                message=(
                    f"conflicting transactions {early.txn_id} and "
                    f"{late.txn_id} run on different lanes with no "
                    "ordering between them; the non-commuting pair "
                    "can execute in inverted source order"
                ),
                table=op_a.table or "",
                txn_a=early.txn_id,
                txn_b=late.txn_id,
                op_a=correlation_id(op_a),
                op_b=correlation_id(op_b),
                lane_a=lane_a,
                lane_b=lane_b,
                witness=witness,
            )
        ]
    if slot_b < slot_a:
        lane_ops = _lane_witness(
            groups, schedule.lanes[lane_a], late.txn_id, early.txn_id
        )
        return [
            RaceFinding(
                code="RACE002",
                message=(
                    f"conflicting transactions {early.txn_id} and "
                    f"{late.txn_id} share lane {lane_a} but in "
                    "inverted source order"
                ),
                table=op_a.table or "",
                txn_a=early.txn_id,
                txn_b=late.txn_id,
                op_a=correlation_id(op_a),
                op_b=correlation_id(op_b),
                lane_a=lane_a,
                lane_b=lane_a,
                witness=lane_ops,
            )
        ]
    return []


def _witness_interleaving(
    groups: Sequence[OpDeltaTransaction],
    schedule: LaneSchedule,
    late: OpDeltaTransaction,
    op_late: OpDelta,
    op_early: OpDelta,
) -> tuple[str, ...]:
    """An admitted op order executing ``op_late`` before ``op_early``.

    Lanes are unsynchronised, so "run ``late``'s lane up to and
    including the offending op, then the early op" is always
    admitted by the schedule — and differs from the serial order.
    """
    by_id = {g.txn_id: g for g in groups}
    lane_index = schedule.lane_of(late.txn_id)
    ids: list[str] = []
    if lane_index is not None:
        for txn_id in schedule.lanes[lane_index]:
            group = by_id.get(txn_id)
            if group is None:
                continue
            for op in group.operations:
                ids.append(correlation_id(op))
                if (
                    txn_id == late.txn_id
                    and op.sequence == op_late.sequence
                ):
                    break
            if txn_id == late.txn_id:
                break
    ids.append(correlation_id(op_early))
    return tuple(ids)


def _lane_witness(
    groups: Sequence[OpDeltaTransaction],
    lane: Sequence[int],
    first_id: int,
    second_id: int,
) -> tuple[str, ...]:
    """The lane's own op order from ``first_id`` through ``second_id``."""
    by_id = {g.txn_id: g for g in groups}
    ids: list[str] = []
    active = False
    for txn_id in lane:
        if txn_id == first_id:
            active = True
        if active:
            group = by_id.get(txn_id)
            if group is not None:
                ids.extend(correlation_id(op) for op in group.operations)
        if txn_id == second_id:
            break
    return tuple(ids)


def _check_group_order(
    group: OpDeltaTransaction,
    record: CommutationRecord,
) -> tuple[int, list[RaceFinding]]:
    """Verify in-group op reorderings: proofs present, barriers kept."""
    findings: list[RaceFinding] = []
    checked = 0
    ops = group.operations
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if ops[i].sequence <= ops[j].sequence:
                continue  # capture order preserved
            checked += 1
            findings.extend(
                _reorder_findings(
                    group.txn_id, ops[i].table or "", ops[i], ops[j], record,
                    crossed=(
                        "a compaction barrier (non-deterministic "
                        "or hybrid op) was moved relative to "
                        "its neighbours; barriers must keep "
                        "exact capture order"
                    ),
                    unproved=(
                        "in-group operations were reordered "
                        "against capture sequence without a "
                        "commutativity proof"
                    ),
                )
            )
    return checked, findings


def _reorder_findings(
    txn_id: int,
    table: str,
    moved: OpDelta,
    over: OpDelta,
    record: CommutationRecord,
    *,
    crossed: str,
    unproved: str,
) -> list[RaceFinding]:
    """``RACE004`` when a barrier moved, ``RACE003`` when no proof backs it."""
    if _is_barrier(moved) or _is_barrier(over):
        code, message = "RACE004", crossed
    elif not record.commute(moved, over):
        code, message = "RACE003", unproved
    else:
        return []
    return [
        RaceFinding(
            code=code,
            message=message,
            table=table,
            txn_a=txn_id,
            txn_b=txn_id,
            op_a=correlation_id(moved),
            op_b=correlation_id(over),
        )
    ]


# -- compaction obligations ---------------------------------------


def verify_compaction(
    groups: Sequence[OpDeltaTransaction],
    obligations: Iterable[Any],
    record: CommutationRecord,
) -> Certificate:
    """Re-prove every coalescer reordering against the original window.

    ``obligations`` are the ``reorder_obligations`` a
    :class:`~repro.compaction.report.CompactionReport` collected: each
    records that a combining statement's effect commuted past an
    intervening op.  Each proof is re-derived from the *uncompacted*
    groups, read from ``record`` — one the analyzer made for this window
    (:meth:`~repro.analysis.analyzer.OpDeltaAnalyzer.record`), not the
    coalescer's; a failed proof means the compactor reordered something it
    should not have.
    """
    groups = list(groups)
    ops_by_key: dict[tuple[int, int], OpDelta] = {
        (group.txn_id, op.sequence): op
        for group in groups
        for op in group.operations
    }
    findings: list[RaceFinding] = []
    checked = 0
    for obligation in obligations:
        checked += 1
        moved = ops_by_key.get(
            (obligation.txn_id, obligation.moved_sequence)
        )
        over = ops_by_key.get(
            (obligation.txn_id, obligation.over_sequence)
        )
        if moved is None or over is None:
            findings.append(
                RaceFinding(
                    code="RACE005",
                    message=(
                        "reorder obligation references an op the "
                        "window does not contain"
                    ),
                    table=obligation.table,
                    txn_a=obligation.txn_id,
                    txn_b=obligation.txn_id,
                    op_a=obligation.moved,
                    op_b=obligation.over,
                )
            )
            continue
        findings.extend(
            _reorder_findings(
                obligation.txn_id, obligation.table, moved, over, record,
                crossed="the coalescer moved an effect across a compaction barrier",
                unproved=(
                    "coalescer reordering is not backed by a "
                    "commutativity proof"
                ),
            )
        )
    certificate = Certificate(
        lanes=0,
        transactions=len(groups),
        operations=len(ops_by_key),
        pairs_checked=checked,
        conflicting_pairs=len(findings),
        reorder_checks=checked,
        findings=tuple(findings),
    )
    registry = record.metrics
    registry.counter("analysis.certify.obligations_checked").inc(checked)
    if findings:
        registry.counter("analysis.certify.findings_raised").inc(
            len(findings)
        )
    return certificate
