"""Columnar group-apply: commit conflict components from batch buffers.

:class:`ColumnarApplier` is the batched hot path the integrator's
columnar mode drives.  Every UPDATE/DELETE of a component — on a mirror
or on a view's storage table — runs its compiled kernels
(:mod:`repro.columnar.kernels`) over a
:class:`~repro.columnar.batch.ColumnBatch` of the rows it can reach, and
commits through the engine's batch DML entry points — which perform the
identical logical mutations (validation, unique checks, index
maintenance, triggers, undo, bit-identical WAL payloads) at the columnar
CPU factor.

**Which rows a batch holds** is the access-path chooser's decision
(:func:`repro.sql.planner.choose_path`, the one the row executor asks):

* a sargable conjunct on an indexed column — the key B-tree every mirror
  and keyed view owns, or any secondary index — **gathers** just the
  RowIds the index returns into a throwaway batch, so a PK-point
  statement costs an index probe and a row read, whatever the table
  holds;
* no index path **images** the table: one costed scan transposes it into
  a batch that stays resident and serves *every* later statement of the
  component (where the row path re-scans per statement), each writing its
  results back so later statements read their writes;
* while an image is resident it is served without asking the chooser — it
  already holds the component's writes.

**Parity invariant.**  For every statement the applier either (a)
replays it columnar with kernels the one SQL compiler built from the same
AST — the code the row path runs, bound to column arrays — or (b) hits a
:class:`~repro.columnar.kernels.CompileBarrier` / unsupported shape and
falls back to the original row path verbatim, invalidating the affected
image.  Either way the final table state is bit-for-bit the state the
row-at-a-time path produces — the property the columnar Hypothesis suite
pins with XOR-SHA256 state digests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..engine.session import Session
from ..engine.table import Table
from ..engine.transactions import Transaction
from ..errors import SqlAnalysisError
from ..sql import ast_nodes as ast
from ..sql.expressions import (
    CONSTANT,
    NO_SESSION,
    Maker,
    Slot,
    insert_rows_maker,
    predicate_maker,
    set_list_maker,
)
from ..sql.planner import probes, settle_path
from ..sql.templates import shaped
from .batch import ColumnBatch
from .kernels import BatchBinding, CompileBarrier, KernelCache, compile_predicate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.opdelta import OpDelta
    from ..semantics.planner import DeltaRule
    from ..warehouse.views import MaterializedView


class RowApplier:
    """The row path: the session executor runs every statement.

    This is the statement executor of the serial and row-batched apply
    configurations, the reference the parity tests compare against, and
    what :class:`ColumnarApplier` falls back to across a compile barrier.
    """

    def __init__(self, session: Session) -> None:
        self._session = session

    def begin_component(self) -> None:
        """A new transactional unit starts; the row path keeps no state."""

    def apply_mirror(self, statement: ast.Statement, txn: Transaction) -> int:
        """Replay one transformed statement; returns the rows affected."""
        return self._session.execute_statement(statement).rows_affected

    def apply_view(
        self,
        view: "MaterializedView",
        op: "OpDelta",
        txn: Transaction,
        rule: "DeltaRule | None",
    ) -> None:
        """Maintain one SPJ view from an op by its (planned) delta rule."""
        view.apply_operation(op, txn, rule=rule)


class ColumnarApplier(RowApplier):
    """Applies transformed statements and view delta rules from batches."""

    def __init__(self, session: Session) -> None:
        super().__init__(session)
        self._db = session.database
        self._clock = self._db.clock
        self._costs = self._db.costs
        self.kernels = KernelCache()
        #: Per-component table images, keyed by physical table name.
        self._images: dict[str, ColumnBatch] = {}
        # Cumulative stats (the integrator reports per-window deltas).
        self.statements = 0
        self.rows_batched = 0
        self.fallbacks = 0

    def counters(self) -> tuple[int, int, int, int, int]:
        """(statements, rows, fallbacks, kernel compiles, kernel hits)."""
        return (
            self.statements,
            self.rows_batched,
            self.fallbacks,
            self.kernels.compiles,
            self.kernels.hits,
        )

    # ------------------------------------------------------------- lifecycle
    def begin_component(self) -> None:
        """Reset per-component state: images never outlive their component.

        Components are mutually independent and may be replayed on
        parallel lanes, so each one pays its own image scans — and an
        image is only as fresh as the writes made through this applier.
        """
        self._images.clear()

    # ------------------------------------------------------------ mirror path
    def apply_mirror(self, statement: ast.Statement, txn: Transaction) -> int:
        """Replay one transformed statement on its mirror table.

        Returns the rows affected (matching the executor's Result).
        """
        try:
            if isinstance(statement, ast.InsertStmt) and statement.select is None:
                return self._mirror_insert(statement, txn)
            if isinstance(statement, (ast.UpdateStmt, ast.DeleteStmt)):
                return self._batched(self._db.table(statement.table), statement, txn)
        except CompileBarrier:
            pass
        # Row-path replay of a statement the kernels cannot cover.
        self.fallbacks += 1
        if statement.table is not None:
            self._images.pop(statement.table, None)
        return super().apply_mirror(statement, txn)

    def _dispatch(self) -> None:
        """Per-statement cost of dispatching a compiled batch program."""
        self.statements += 1
        self._clock.advance(self._costs.stmt_overhead * self._costs.columnar_cpu_factor)

    def _batch(
        self, table: Table, stmt: ast.UpdateStmt | ast.DeleteStmt
    ) -> ColumnBatch:
        """The rows of ``table`` that ``stmt`` must see.

        The component's resident image when there is one (it already holds
        the component's writes).  Otherwise whatever the access-path chooser
        says — which conjuncts an index could answer is the shape's, the
        literal probed with the statement's: the rows an index reaches,
        gathered into a throwaway batch — a candidate filter only, the
        statement's kernels still run over it — or, with no index path, the
        whole table as the image that stays resident for the rest of the
        component.
        """
        image = self._images.get(table.name)
        if image is None:
            found, literals = shaped(
                stmt,
                table.version,
                "reach",
                lambda shape, slot: probes(table, stmt.table, shape.where, slot),
            )
            reached = settle_path(found, literals).row_ids
            if reached is not None:
                row_ids = list(reached)
                return ColumnBatch.from_rows(
                    table.schema.column_names, map(table.read, row_ids), row_ids
                )
            image = self._images[table.name] = ColumnBatch.from_table(table)
        return image

    def _mirror_insert(self, stmt: ast.InsertStmt, txn: Transaction) -> int:
        table = self._db.table(stmt.table)
        # Literal rows compile to kernels over no columns; volatile
        # expressions barrier out to the row path here.
        literal_rows, literals = self.kernels.get(
            stmt,
            table.version,
            "mirror-insert",
            lambda shape, slot: insert_rows_maker(
                shape, table.schema.column_names, SqlAnalysisError,
                BatchBinding({}), slot,
            ),
        )
        self._dispatch()
        rows = list(literal_rows(literals)(0))
        self._insert_batch(table, rows, txn)
        return len(rows)

    def _insert_batch(
        self, table: Table, rows: list[tuple[Any, ...]], txn: Transaction
    ) -> None:
        """Batch-insert ``rows``, keeping a live image of ``table`` current."""
        row_ids = table.insert_batch(txn, rows)
        self.rows_batched += len(rows)
        image = self._images.get(table.name)
        if image is not None:
            for row_id in row_ids:
                # Read back the stored values (validated and stamped).
                image.append(table.read(row_id), row_id=row_id)

    def _batched(
        self, table: Table, stmt: ast.UpdateStmt | ast.DeleteStmt, txn: Transaction
    ) -> int:
        """One compiled UPDATE or DELETE over a batch of ``table``: a mirror
        and the statement transformed onto it, or a view's storage and the
        view's rewrite of the statement.  Returns the rows matched."""
        if isinstance(stmt, ast.UpdateStmt):
            return self._batch_update(table, stmt, txn)
        return self._batch_delete(table, stmt, txn)

    def _batch_update(
        self, table: Table, stmt: ast.UpdateStmt, txn: Transaction
    ) -> int:
        batch = self._batch(table, stmt)

        def build(shape: ast.UpdateStmt, slot: Slot) -> tuple[Maker, Any]:
            bind = BatchBinding(batch.layout, frozenset({shape.table}))
            return predicate_maker(shape.where, bind, slot), set_list_maker(
                shape.assignments, bind, slot
            )

        (keep, sets), literals = self.kernels.get(stmt, table.version, "update", build)
        matched = self._matched(batch, keep(literals, NO_SESSION))
        columns, maker = sets
        new_values = maker(literals, NO_SESSION)
        cols = batch.columns
        updates = [
            (batch.row_ids[pos], dict(zip(columns, new_values(cols, pos))))
            for pos in matched
        ]
        results = table.update_batch(txn, updates)
        for pos, (_old, new_values) in zip(matched, results):
            batch.set_row(pos, new_values)
        return len(matched)

    def _batch_delete(
        self, table: Table, stmt: ast.DeleteStmt, txn: Transaction
    ) -> int:
        batch = self._batch(table, stmt)
        keep, literals = self.kernels.get(
            stmt,
            table.version,
            "delete",
            lambda shape, slot: predicate_maker(
                shape.where, BatchBinding(batch.layout, frozenset({shape.table})), slot
            ),
        )
        matched = self._matched(batch, keep(literals, NO_SESSION))
        table.delete_batch(txn, [batch.row_ids[pos] for pos in matched])
        for pos in matched:
            batch.mark_deleted(pos)
        return len(matched)

    def _matched(self, batch: ColumnBatch, predicate: Any) -> list[int]:
        """Dispatch one batch program; the live positions it selects."""
        self._dispatch()
        cols = batch.columns
        valid = batch.valid
        matched = [
            pos for pos in range(len(valid)) if valid[pos] and predicate(cols, pos)
        ]
        self.rows_batched += len(matched)
        return matched

    # -------------------------------------------------------------- view path
    def apply_view(
        self,
        view: "MaterializedView",
        op: "OpDelta",
        txn: Transaction,
        rule: "DeltaRule | None",
    ) -> None:
        """Maintain one SPJ view from an op through compiled rule kernels.

        Deterministic OP_ONLY / projected-insert rules run columnar;
        dynamic rules, before-image paths, joins and anything the
        compiler barriers on take the original row path unchanged.
        """
        if op.table != view.definition.base_table:
            return
        from ..core.opdelta import OpKind

        stmt = op.statement
        columnar = not (
            rule is None
            or rule.action.value in ("dynamic", "source-query")
            or rule.needs_before_image
            or view.definition.join is not None
        )
        try:
            if (
                columnar
                and op.kind is OpKind.INSERT
                and isinstance(stmt, ast.InsertStmt)
                and stmt.select is None
            ):
                self._view_insert(view, stmt, txn)
            elif columnar and isinstance(stmt, (ast.UpdateStmt, ast.DeleteStmt)):
                self._batched(view.table, view.rewritten(stmt), txn)
            else:
                columnar = False
        except CompileBarrier:
            columnar = False
        if columnar:
            view.note_columnar_refresh()
            return
        # Hybrid-plan barrier: the row path maintains the view for this op.
        self.fallbacks += 1
        self._images.pop(view.table.name, None)
        super().apply_view(view, op, txn, rule)

    def _view_insert(
        self, view: "MaterializedView", stmt: ast.InsertStmt, txn: Transaction
    ) -> None:
        base_columns = view.base_columns

        def build(shape: ast.InsertStmt, slot: Slot) -> tuple[Any, ...]:
            base_layout = {name: at for at, name in enumerate(base_columns)}
            qualify = compile_predicate(view.predicate, base_layout)
            project = tuple(
                base_layout[name] for name in view.definition.columns
            )
            # Base rows exactly as the row path computes them; a width
            # mismatch barriers so that the row path raises its own error.
            base_rows = insert_rows_maker(
                shape, base_columns, CompileBarrier, CONSTANT, slot
            )
            return qualify, project, base_rows

        (qualify, project, base_rows), literals = self.kernels.get(
            stmt,
            view.table.version,
            "view-insert",
            build,
        )
        self._dispatch()
        batch = ColumnBatch.from_rows(base_columns, base_rows(literals)(NO_SESSION))
        cols = batch.columns
        projected = [
            tuple(cols[slot][pos] for slot in project)
            for pos in range(batch.num_rows)
            if qualify(cols, pos)
        ]
        if projected:
            self._insert_batch(view.table, projected, txn)
