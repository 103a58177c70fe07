"""Op-Delta log compaction: safe statement-stream rewriting.

The paper's case for Op-Delta is *compactness* — one captured statement
stands in for arbitrarily many affected rows (§4).  The stream itself
still carries redundancy the literature shows is removable (DBToaster
condenses delta streams before application; staging-area ETL batches
before loading): a row inserted and deleted inside the same source
transaction never needs to reach the warehouse at all, two UPDATEs over
the same key range collapse into one statement, and a run of single-row
INSERTs is one multi-row INSERT wearing n statement headers.

:class:`Coalescer` rewrites a shippable window of captured
:class:`~repro.core.opdelta.OpDeltaTransaction` groups under four rules,
every one justified by the static analysis layer (:mod:`repro.analysis`):

* **UPDATE ∘ UPDATE fold** — same table, structurally identical WHERE,
  no WHERE column assigned by either statement: the later statement's
  assignments overwrite (or, for accumulating ``c = c + k`` shapes,
  numerically fold into) the earlier ones.
* **INSERT run fusion** — plain ``VALUES`` inserts into the same table
  with the same column list concatenate their row lists.
* **INSERT ∘ DELETE annihilation** — when the DELETE's predicate range
  pins the primary key to a point set *inside* the inserted key set
  (nothing pre-existing can match — the inserted keys were fresh at the
  source, or the INSERT would have failed) *and* the predicate evaluates
  true on every inserted row (so every inserted row dies), both
  statements vanish.
* **UPDATE superseded by DELETE** — the UPDATE is dropped when its WHERE
  structurally implies the DELETE's (:func:`repro.analysis.safety.
  conjuncts_imply`, exact — no range approximation) and none of its
  assignments touches a DELETE predicate column.

**Safety argument.**  Rules combine only *adjacent* operations; to bring
a pair together the later operation must provably commute with everything
between them — commuting-only reordering, read from a
:class:`~repro.analysis.conflict.CommutationRecord` the analyzer makes for
each window, so the coalescer judges a pair exactly as the conflict graph
and the certifier do.  Operations outside the ``DETERMINISTIC`` class of the
determinism lattice (``TIME_DEPENDENT``, ``VOLATILE``) and hybrid
operations carrying before images are never rewritten, never consumed by
a rule, and act as reordering barriers.  Source transaction boundaries
are preserved: each group is compacted independently, so no operation
ever crosses into another transaction (a fully annihilated group is
dropped — an empty transaction has no observable effect).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Sequence, Union

from ..analysis.analyzer import OpDeltaAnalyzer
from ..analysis.conflict import CommutationRecord
from ..analysis.rwsets import StatementFootprint, extract_footprint
from ..analysis.safety import (
    Determinism,
    conjuncts_imply,
    self_accumulation,
    statement_determinism,
)
from ..clock import VirtualClock
from ..core.opdelta import OpDelta, OpDeltaTransaction
from ..errors import SqlAnalysisError
from ..obs.context import ambient_metrics, ambient_tracer
from ..obs.metrics import NULL_REGISTRY, MetricsLike
from ..obs.pipeline.context import ambient_pipeline
from ..obs.pipeline.events import lineage_key
from ..sql import ast_nodes as ast
from ..sql.expressions import (
    NO_SESSION,
    RowBinding,
    compile_predicate,
    referenced_columns,
)
from .report import AbsorbedEdge, CompactionReport, ReorderObligation


@dataclasses.dataclass(frozen=True)
class _Entry:
    """One operation in flight through the window scan."""

    op: OpDelta
    footprint: StatementFootprint
    #: DETERMINISTIC, non-hybrid: may be rewritten and moved past.
    coalescible: bool


class _Outcome:
    """Sentinel results of a pairwise combine attempt."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<combine:{self.name}>"


#: Both operations vanish (INSERT ∘ DELETE annihilation).
DROP_BOTH = _Outcome("drop-both")
#: The earlier operation vanishes; the later keeps scanning downward.
DROP_PREV = _Outcome("drop-prev")

CombineResult = Union[_Entry, _Outcome, None]


class Coalescer:
    """Compacts windows of captured Op-Delta transaction groups.

    ``analyzer`` makes the commutation record each window is judged by,
    supplies the key/table catalogs the annihilation proof reads, and
    re-analyses every rewritten operation (a fresh
    :class:`~repro.analysis.AnalysisRecord`) so downstream pruning/pinning
    still works.

    ``clock`` enables the per-pass trace span (virtual time); ``metrics``
    overrides the ambient registry.
    """

    def __init__(
        self,
        analyzer: OpDeltaAnalyzer,
        clock: VirtualClock | None = None,
        metrics: MetricsLike | None = None,
    ) -> None:
        self._analyzer = analyzer
        self._clock = clock
        self._metrics = metrics

    @property
    def metrics(self) -> MetricsLike:
        if self._metrics is not None:
            return self._metrics
        ambient = ambient_metrics()
        return ambient if ambient is not None else NULL_REGISTRY

    # ------------------------------------------------------------------ window
    def compact_window(
        self, groups: Iterable[OpDeltaTransaction]
    ) -> tuple[list[OpDeltaTransaction], CompactionReport]:
        """Rewrite one shippable window; returns ``(groups, report)``.

        Transaction boundaries are preserved — each group is compacted on
        its own, and groups whose every operation annihilated are dropped
        from the window entirely.
        """
        report = CompactionReport()
        record = self._analyzer.record()
        tracer = ambient_tracer()
        if tracer is not None and self._clock is not None:
            with tracer.span("compaction.window.pass", clock=self._clock):
                compacted = self._compact(list(groups), report, record)
        else:
            compacted = self._compact(list(groups), report, record)
        self._emit(report)
        return compacted, report

    def _compact(
        self,
        groups: list[OpDeltaTransaction],
        report: CompactionReport,
        record: CommutationRecord,
    ) -> list[OpDeltaTransaction]:
        out: list[OpDeltaTransaction] = []
        for group in groups:
            report.transactions_in += 1
            report.ops_in += len(group.operations)
            report.bytes_in += group.size_bytes
            entries = self._compact_group(group.operations, report, record)
            if not entries:
                continue  # fully annihilated: an empty txn has no effect
            report.transactions_out += 1
            ops = [entry.op for entry in entries]
            kept = (
                group
                if len(ops) == len(group.operations)
                and all(a is b for a, b in zip(ops, group.operations))
                else dataclasses.replace(group, operations=ops)
            )
            report.ops_out += len(ops)
            report.bytes_out += kept.size_bytes
            out.append(kept)
        return out

    # ------------------------------------------------------------------- group
    def _compact_group(
        self,
        operations: Sequence[OpDelta],
        report: CompactionReport,
        record: CommutationRecord,
    ) -> list[_Entry]:
        entries: list[_Entry] = []
        for op in operations:
            current = self._entry(op)
            if current.coalescible and self._place(
                entries, current, report, record
            ):
                continue
            entries.append(current)
        return entries

    def _place(
        self,
        entries: list[_Entry],
        current: _Entry,
        report: CompactionReport,
        record: CommutationRecord,
    ) -> bool:
        """Try to combine ``current`` with an earlier kept operation.

        Scans backwards from the window tail.  ``current`` may only reach
        a candidate by provably commuting with every operation after it;
        non-coalescible operations are hard barriers.  Returns ``True``
        when ``current`` was consumed by a rule.  Every op the scan
        commuted past on the way to a *successful* combine is recorded as
        a :class:`~repro.compaction.report.ReorderObligation` — the
        surviving statement's effect moved earlier, and the certifier
        re-proves each hop before the window is applied.
        """
        hops: list[OpDelta] = []
        i = len(entries) - 1
        while i >= 0:
            candidate = entries[i]
            if candidate.coalescible:
                outcome = self._combine(candidate, current, report)
                if outcome is DROP_BOTH:
                    del entries[i]
                    self._record_reorders(report, current.op, hops)
                    return True
                if outcome is DROP_PREV:
                    del entries[i]
                    i -= 1
                    continue
                if isinstance(outcome, _Entry):
                    entries[i] = outcome
                    self._record_reorders(report, current.op, hops)
                    return True
            if not candidate.coalescible or not record.commute(
                candidate.op, current.op
            ):
                return False
            hops.append(candidate.op)
            i -= 1
        return False

    def _record_reorders(
        self,
        report: CompactionReport,
        moved: OpDelta,
        hops: Sequence[OpDelta],
    ) -> None:
        """Flush the commutativity proofs a successful combine relied on."""
        for passed in hops:
            report.reorder_obligations.append(
                ReorderObligation(
                    moved=lineage_key(moved),
                    over=lineage_key(passed),
                    table=moved.table or "",
                    txn_id=moved.txn_id,
                    moved_sequence=moved.sequence,
                    over_sequence=passed.sequence,
                )
            )

    # ------------------------------------------------------------------- rules
    def _combine(
        self, cand: _Entry, current: _Entry, report: CompactionReport
    ) -> CombineResult:
        if cand.footprint.table != current.footprint.table:
            return None
        kind_c = cand.footprint.kind.name
        kind_n = current.footprint.kind.name
        if kind_c == "UPDATE" and kind_n == "UPDATE":
            merged = self._fold_updates(cand, current)
            if merged is not None:
                report.updates_folded += 1
                # The merged statement keeps the candidate's identity, so
                # the later update is absorbed into the earlier one.
                self._absorb(report, current.op, cand.op, "fold_updates")
            return merged
        if kind_c == "INSERT" and kind_n == "INSERT":
            merged = self._fuse_inserts(cand, current)
            if merged is not None:
                report.inserts_fused += 1
                self._absorb(report, current.op, cand.op, "fuse_inserts")
            return merged
        if kind_c == "INSERT" and kind_n == "DELETE":
            if self._annihilates(cand, current):
                report.pairs_annihilated += 1
                # Annihilation: neither statement survives — both effects
                # vanish, with no absorber to point at.
                self._absorb(report, cand.op, None, "annihilate_pair")
                self._absorb(report, current.op, None, "annihilate_pair")
                return DROP_BOTH
            return None
        if kind_c == "UPDATE" and kind_n == "DELETE":
            if self._superseded(cand, current):
                report.updates_superseded += 1
                self._absorb(report, cand.op, current.op, "supersede_update")
                return DROP_PREV
            return None
        return None

    def _absorb(
        self,
        report: CompactionReport,
        absorbed: OpDelta,
        absorber: OpDelta | None,
        rule: str,
    ) -> None:
        """Account one removed statement: report edge + lineage event."""
        report.absorbed.append(
            AbsorbedEdge(
                absorbed=lineage_key(absorbed),
                absorbed_by=None if absorber is None else lineage_key(absorber),
                rule=rule,
            )
        )
        recorder = ambient_pipeline()
        if recorder is not None:
            at_ms = self._clock.now if self._clock is not None else None
            recorder.record_absorbed(absorbed, absorber, rule, at_ms=at_ms)

    def _fold_updates(self, cand: _Entry, current: _Entry) -> _Entry | None:
        c = cand.op.statement
        n = current.op.statement
        assert isinstance(c, ast.UpdateStmt) and isinstance(n, ast.UpdateStmt)
        if c.where != n.where:
            return None
        assigned_c = {a.column for a in c.assignments}
        assigned_n = {a.column for a in n.assignments}
        # The first update must not change which rows the (identical)
        # second predicate matches, and vice versa.
        if cand.footprint.where_columns & (assigned_c | assigned_n):
            return None
        merged: dict[str, ast.Assignment] = {a.column: a for a in c.assignments}
        for assignment in n.assignments:
            reads = referenced_columns(assignment.expr) & assigned_c
            if not reads:
                # Reads only columns the first update left alone: the
                # later assignment sees pre-state either way.  Overwrite.
                merged[assignment.column] = assignment
                continue
            if reads != {assignment.column}:
                return None  # reads a column the first update rewrote
            earlier = merged.get(assignment.column)
            if earlier is None:
                return None
            folded = self._fold_accumulation(
                assignment.column, earlier.expr, assignment.expr
            )
            if folded is None:
                return None
            merged[assignment.column] = ast.Assignment(
                assignment.column, folded
            )
        statement = ast.UpdateStmt(
            table=c.table, assignments=tuple(merged.values()), where=c.where
        )
        return self._merged_entry(cand, statement)

    @staticmethod
    def _fold_accumulation(
        column: str, earlier: ast.Expression, later: ast.Expression
    ) -> ast.Expression | None:
        """``c = c + k1`` then ``c = c + k2`` becomes ``c = c + (k1+k2)``."""
        acc_earlier = self_accumulation(column, earlier)
        acc_later = self_accumulation(column, later)
        if acc_earlier is None or acc_later is None:
            return None
        op, k1 = acc_earlier
        op_later, k2 = acc_later
        if op != op_later:
            return None
        value = k1 + k2 if op == "+" else k1 * k2
        return ast.BinaryOp(op, ast.ColumnRef(column), ast.Literal(value))

    def _fuse_inserts(self, cand: _Entry, current: _Entry) -> _Entry | None:
        c = cand.op.statement
        n = current.op.statement
        assert isinstance(c, ast.InsertStmt) and isinstance(n, ast.InsertStmt)
        if c.select is not None or n.select is not None:
            return None
        if c.columns != n.columns:
            return None
        statement = ast.InsertStmt(
            table=c.table, columns=c.columns, rows=c.rows + n.rows
        )
        return self._merged_entry(cand, statement)

    def _annihilates(self, cand: _Entry, current: _Entry) -> bool:
        insert = cand.op.statement
        delete = current.op.statement
        assert isinstance(insert, ast.InsertStmt)
        assert isinstance(delete, ast.DeleteStmt)
        if insert.select is not None or delete.where is None:
            return False
        table = cand.footprint.table
        pk = self._analyzer.key_columns.get(table)
        if pk is None:
            return False
        names = (
            insert.columns
            if insert.columns is not None
            else self._analyzer.table_columns.get(table)
        )
        if names is None or pk not in names:
            return False
        rows: list[tuple[Any, ...]] = []
        for row in insert.rows:
            if len(row) != len(names) or not all(
                isinstance(expr, ast.Literal) for expr in row
            ):
                return False
            rows.append(tuple(expr.value for expr in row))  # type: ignore[union-attr]
        pk_slot = names.index(pk)
        inserted_keys = {row[pk_slot] for row in rows}
        # (1) Nothing *but* inserted rows can match: the DELETE's range
        # must pin the primary key to points inside the inserted key set.
        # Inserted keys were fresh at the source, so any row with such a
        # key is an inserted row.
        row_range = current.footprint.row_range
        constraint = None if row_range is None else row_range.get(pk)
        if constraint is None or constraint.null_only or not constraint.intervals:
            return False
        if not all(interval.is_point for interval in constraint.intervals):
            return False
        if not {interval.low for interval in constraint.intervals} <= inserted_keys:
            return False
        # (2) Every inserted row must actually match: evaluate the real
        # predicate (exact, unlike the range superset) on each row.
        matches = compile_predicate(delete.where, RowBinding(names))
        try:
            return all(matches(row, NO_SESSION) for row in rows)
        except SqlAnalysisError:
            return False

    def _superseded(self, cand: _Entry, current: _Entry) -> bool:
        update = cand.op.statement
        delete = current.op.statement
        assert isinstance(update, ast.UpdateStmt)
        assert isinstance(delete, ast.DeleteStmt)
        # The UPDATE must not change the DELETE's membership...
        assigned = {a.column for a in update.assignments}
        if assigned & current.footprint.where_columns:
            return False
        # ...and every row it touches must be provably deleted right after.
        return conjuncts_imply(update.where, delete.where)

    # ---------------------------------------------------------------- plumbing
    def _entry(self, op: OpDelta) -> _Entry:
        if op.analysis is not None:
            footprint = op.analysis.footprint
            determinism = op.analysis.determinism
        else:
            footprint = extract_footprint(
                op.statement, self._analyzer.table_columns or None
            )
            determinism = statement_determinism(op.statement)
        coalescible = (
            determinism is Determinism.DETERMINISTIC and op.before_image is None
        )
        return _Entry(op=op, footprint=footprint, coalescible=coalescible)

    def _merged_entry(self, cand: _Entry, merged: ast.Statement) -> _Entry:
        # An operation is its text — that is what ships.  The merged one is
        # analysed, and later applied, as that text parses: through the
        # template of its shape, like any captured statement.
        op = dataclasses.replace(
            cand.op, statement_text=merged.to_sql(), _parsed=None, analysis=None
        )
        op.analysis = self._analyzer.analyze_statement(op.statement)
        return _Entry(op=op, footprint=op.analysis.footprint, coalescible=True)

    def _emit(self, report: CompactionReport) -> None:
        metrics = self.metrics
        metrics.counter("compaction.window.passes").inc()
        metrics.counter("compaction.window.ops_in").inc(report.ops_in)
        metrics.counter("compaction.window.ops_out").inc(report.ops_out)
        metrics.counter("compaction.window.bytes_in").inc(report.bytes_in)
        metrics.counter("compaction.window.bytes_out").inc(report.bytes_out)
        metrics.counter("compaction.rule.updates_folded").inc(
            report.updates_folded
        )
        metrics.counter("compaction.rule.inserts_fused").inc(
            report.inserts_fused
        )
        metrics.counter("compaction.rule.pairs_annihilated").inc(
            report.pairs_annihilated
        )
        metrics.counter("compaction.rule.updates_superseded").inc(
            report.updates_superseded
        )
