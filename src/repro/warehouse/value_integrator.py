"""Value-delta integration: the classic, outage-inducing path (§4.1).

"Since the transaction context of value delta is lost, each original
transaction will be captured by one or more value delta records and each of
which will be translated into a single SQL statement ... value delta
methods ... need to be applied as an indivisible batch."

Concretely, for a batch of value deltas this integrator issues:

* one INSERT statement per insert record,
* one DELETE statement (by key, from the before image) per delete record,
* one DELETE **plus** one INSERT per update record,

all inside a single warehouse transaction.  The per-statement overhead times
2x statements for updates is exactly why the paper's maintenance window is
31.8% / 69.7% longer than Op-Delta's for deletes / updates.

That overhead is the *modelled* one (``stmt_overhead`` on the virtual clock,
charged per statement as ever).  On the host clock the DELETE by key and the
single-row INSERT are the integrator's fixed repertoire, so they are **bound
from prepared templates** (:func:`delete_by_key`, :func:`insert_row`; DESIGN.md
"Statement templates"): the executor's per-shape work is done once per target
table, not once per record.  Only the array INSERT of a run — as many shapes
as runs have lengths — is built as a tree; its literal rows are read, not
compiled.  A DELETE of a DELETE/UPDATE record must find its row: a before
image that addresses nothing means the mirror is not the state the delta was
extracted against, and the batch is refused (UPSERT, whose provenance is
unknown by definition, stays lenient).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..engine.session import Session
from ..engine.transactions import Transaction
from ..errors import WarehouseError
from ..extraction.deltas import ChangeKind, DeltaBatch
from ..obs.pipeline.context import ambient_pipeline
from ..sql import ast_nodes as ast
from ..sql.parser import TEMPLATES


@dataclass
class IntegrationReport:
    """Outcome of one integration run."""

    mode: str
    statements_issued: int = 0
    rows_affected: int = 0
    elapsed_ms: float = 0.0
    transactions: int = 0
    per_transaction_ms: list[float] = field(default_factory=list)
    #: Statements dropped by view-relevance pruning (op-delta mode only).
    statements_pruned: int = 0
    #: Time-dependent statements replayed with their capture timestamp
    #: substituted for ``NOW()`` (op-delta mode only).
    statements_pinned: int = 0
    #: Volatile statements replayed from their captured before image
    #: instead of by re-execution (op-delta mode only).
    fallback_images_applied: int = 0
    #: View maintenance steps resolved by a static planner rule instead of
    #: per-statement classification (op-delta mode with a plan catalog).
    plan_rules_applied: int = 0
    #: Conflict components applied as single warehouse transactions
    #: (op-delta batched mode only; 0 for per-transaction application).
    components: int = 0
    #: Virtual apply time of each conflict component, in schedule order
    #: (op-delta batched mode only) — these feed the parallel-lane replay.
    per_component_ms: list[float] = field(default_factory=list)
    #: Delta-rule resolutions requested / served from the per-window memo
    #: (op-delta batched mode only): hits are lookups that skipped the
    #: plan-catalog walk because the same (table, kind, view) was already
    #: resolved in this window.
    rule_lookups: int = 0
    rule_cache_hits: int = 0
    #: Schedule-certification verdict stamped by the pre-flight check
    #: (``CERTIFIED``/``REJECTED``; empty when no certifier ran).  The
    #: value-delta path stamps ``CERTIFIED`` trivially: one indivisible
    #: batch per warehouse transaction is already a serial schedule.
    certificate_verdict: str = ""
    #: Rendered ``RACE*`` findings from a rejected certification, kept on
    #: the report for post-mortem inspection (rejection also raises).
    race_findings: list[str] = field(default_factory=list)
    #: Delta-rule verification stamps (view name -> "hash12:VERDICT")
    #: copied from the op-delta integrator's plan pre-flight; empty when
    #: no plans were supplied or verification was opted out.
    plan_certificates: dict[str, str] = field(default_factory=dict)
    #: The plan-certificate hash the batched rule memo was keyed on, and
    #: how many (table, kind, view) resolutions that memo already held
    #: at window start (>0 means a repeated window reused prior work).
    rule_memo_key: str = ""
    rule_memo_preloaded: int = 0
    #: Columnar-mode accounting (op-delta columnar mode only): statements
    #: dispatched as compiled batch programs, rows they touched, kernel
    #: compilations vs cache hits, and row-path fallback barriers.
    columnar_statements: int = 0
    columnar_rows: int = 0
    kernel_compiles: int = 0
    kernel_cache_hits: int = 0
    columnar_fallbacks: int = 0


@contextmanager
def transactional_unit(session: Session, what: str) -> Iterator[Transaction]:
    """The one warehouse commit site: ``begin`` → body → ``commit``.

    Every apply configuration — serial, row-batched and columnar Op-Delta
    units, and the indivisible value-delta batch — runs its statements and
    view maintenance inside this block.  Any failure in the body rolls the
    whole unit back and surfaces as a typed
    :class:`~repro.errors.WarehouseError` naming ``what`` was being
    applied; nothing of a failed unit is ever visible.  REPRO006 flags a
    session ``begin``/``commit``/``rollback`` anywhere else in the
    integrator modules.
    """
    session.begin()
    txn = session.current_transaction
    assert txn is not None
    try:
        yield txn
    except Exception as exc:
        if session.in_transaction:
            session.rollback()
        raise WarehouseError(f"{what} failed: {exc}") from exc
    session.commit()


class ValueDeltaIntegrator:
    """Applies value-delta batches to warehouse mirror tables."""

    def __init__(self, session: Session) -> None:
        self._session = session

    def integrate(self, batch: DeltaBatch) -> IntegrationReport:
        """Apply one batch as an indivisible warehouse transaction.

        The batch is a single serial warehouse transaction, so its
        schedule is trivially serializable — the report carries a
        ``CERTIFIED`` verdict without invoking the certifier.
        """
        report = IntegrationReport(mode="value-delta")
        report.certificate_verdict = "CERTIFIED"
        clock = self._session.database.clock
        started = clock.now
        key_column = batch.schema.primary_key
        if key_column is None:
            raise WarehouseError(
                f"value-delta integration of {batch.table!r} needs a primary "
                "key to address warehouse rows"
            )
        key_index = batch.schema.primary_key_index()

        with transactional_unit(
            self._session, f"value-delta integration of {batch.table!r}"
        ):
            with self._session.database.tracer.span(
                "warehouse.apply.value_batch", table=batch.table
            ):
                for statement, must_find in self._batch_statements(
                    batch, key_column, key_index
                ):
                    result = self._session.execute_statement(statement)
                    report.statements_issued += 1
                    report.rows_affected += result.rows_affected
                    if must_find and not result.rows_affected:
                        raise WarehouseError(
                            f"{statement.to_sql()} found no row to delete "
                            "(mirror state diverged)"
                        )
        report.transactions = 1
        report.elapsed_ms = clock.now - started
        report.per_transaction_ms.append(report.elapsed_ms)
        recorder = ambient_pipeline()
        if recorder is not None:
            # Value deltas lose per-op lineage (the paper's point), but the
            # batch apply is still a freshness-relevant pipeline event.
            recorder.record_value_batch(
                batch.table, len(batch.records), at_ms=clock.now
            )
        return report

    def integrate_many(self, batches: Iterable[DeltaBatch]) -> IntegrationReport:
        total = IntegrationReport(mode="value-delta")
        total.certificate_verdict = "CERTIFIED"
        clock = self._session.database.clock
        started = clock.now
        for batch in batches:
            report = self.integrate(batch)
            total.statements_issued += report.statements_issued
            total.rows_affected += report.rows_affected
            total.transactions += report.transactions
            total.per_transaction_ms.extend(report.per_transaction_ms)
        total.elapsed_ms = clock.now - started
        return total

    # --------------------------------------------------------------- internals
    def _batch_statements(
        self, batch: DeltaBatch, key_column: str, key_index: int
    ) -> Iterator[tuple[ast.Statement, bool]]:
        """``(statement, must find its row)`` for a whole batch.

        Runs of consecutive INSERT records collapse into one array-insert
        statement — "each original insert transaction will be captured as
        one value delta record which will be translated into one insert SQL
        statement", which is why insert maintenance costs the same under
        both delta representations.  Updates and deletes stay one (or two)
        statements *per record*: their transaction context is lost.  Those
        two are the integrator's fixed repertoire and are bound from their
        prepared templates; the array INSERT has as many shapes as runs have
        lengths, and is built as the one-off tree it is.
        """
        target = batch.table
        pending_inserts: list[tuple[Any, ...]] = []

        def flush() -> Iterator[tuple[ast.Statement, bool]]:
            if pending_inserts:
                rows = tuple(
                    tuple(ast.Literal(v) for v in row) for row in pending_inserts
                )
                pending_inserts.clear()
                yield ast.InsertStmt(target, None, rows=rows), False

        for record in batch.records:
            if record.kind is ChangeKind.INSERT:
                assert record.after is not None
                pending_inserts.append(record.after)
                continue
            yield from flush()
            # DELETE by key, then (unless the row is gone) INSERT the after
            # image.  UPDATE replaces its before image.  UPSERT (timestamp
            # extraction) has unknown provenance: delete any existing image
            # of the final state, then insert it.
            known = record.kind is not ChangeKind.UPSERT
            replaced = record.before if known else record.after
            assert replaced is not None
            yield delete_by_key(target, key_column, replaced[key_index]), known
            if record.after is not None:
                yield insert_row(target, record.after), False
        yield from flush()


def delete_by_key(table: str, key_column: str, key: Any) -> ast.Statement:
    """``DELETE FROM table WHERE key_column = key``, bound from its template."""
    return TEMPLATES.prepared(
        ("delete by key", table, key_column),
        (key,),
        lambda slots: ast.DeleteStmt(
            table, ast.BinaryOp("=", ast.ColumnRef(key_column), ast.Literal(slots[0]))
        ),
    ).bind((key,), ())


def insert_row(table: str, row: tuple[Any, ...]) -> ast.Statement:
    """``INSERT INTO table VALUES (row)``, bound from the template of rows
    whose cells have these classes (a NULL cell is part of the shape)."""
    return TEMPLATES.prepared(
        ("insert row", table),
        row,
        lambda slots: ast.InsertStmt(
            table, None, rows=(tuple(map(ast.Literal, slots)),)
        ),
    ).bind(row, ())
