"""Materialized SPJ views with two maintenance paths (paper §4.1, ref [8]).

A :class:`MaterializedView` stores a select-project(-join) view of one
source table inside the warehouse database and can be maintained either

* from **Op-Deltas** (:meth:`MaterializedView.apply_operation`) — using the
  self-maintainability analysis (:func:`~repro.core.selfmaint.replay_kind`):
  operations that are maintainable alone are
  rewritten onto the view (once per statement *shape*: the rewrite is filed
  on the operation's template, :func:`repro.sql.templates.reshaped`, so the
  executor meets a statement whose access it already knows); operations
  that are not use the hybrid before image; or
* from **value deltas** (:meth:`MaterializedView.apply_value_delta`) — the
  classic per-row image path.

Both paths must produce the same state as recomputing the view from the
base table — the equivalence the property tests check.  Wherever row
images are involved they are one path: :meth:`MaterializedView._apply_images`
turns a ``(before, after)`` pair into storage operations, fed by value
deltas with the images they carry and by hybrid Op-Deltas with the images
:func:`~repro.core.opdelta.derive_row_images` derives from the operation.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable

from ..core.opdelta import OpDelta, OpKind, derive_row_images
from ..core.selfmaint import Maintainability, ViewDefinition, replay_kind
from ..engine.database import Database
from ..engine.rows import RowId
from ..engine.schema import Column, TableSchema
from ..engine.table import InsertMode, Table
from ..engine.transactions import Transaction
from ..errors import WarehouseError
from ..sql import ast_nodes as ast
from ..sql.executor import Executor
from ..sql.expressions import NO_SESSION, RowBinding, compile_predicate
from ..sql.planner import choose_path
from ..sql.templates import reshaped


class MaterializedView:
    """One materialized view inside the warehouse database."""

    def __init__(
        self,
        warehouse_db: Database,
        definition: ViewDefinition,
        base_schema: TableSchema,
    ) -> None:
        if definition.base_table != base_schema.name:
            raise WarehouseError(
                f"view {definition.name!r} is over {definition.base_table!r} "
                f"but was given the schema of {base_schema.name!r}"
            )
        unknown = set(definition.columns) - set(base_schema.column_names)
        if unknown:
            raise WarehouseError(
                f"view {definition.name!r} projects unknown columns: {sorted(unknown)}"
            )
        self._db = warehouse_db
        self._executor = Executor(warehouse_db)
        self.definition = definition
        self.base_schema = base_schema
        self._base_columns = base_schema.column_names
        self._projection = [
            base_schema.column_index(name) for name in definition.columns
        ]
        self._predicate = definition.predicate_ast()
        self._qualifies_kernel = compile_predicate(
            self._predicate, RowBinding(self._base_columns)
        )
        self._key = definition.key_column
        if self._key is not None and self._key not in base_schema.column_names:
            raise WarehouseError(
                f"view key {self._key!r} is not a column of {base_schema.name!r}"
            )

        columns = [base_schema.column(name) for name in definition.columns]
        join = definition.join
        if join is not None and join.columns:
            # A join projecting no dimension columns needs no local copy:
            # there is nothing to look up at maintenance time.
            if not warehouse_db.has_table(join.table):
                raise WarehouseError(
                    f"view {definition.name!r} joins {join.table!r}, which is "
                    "not mirrored at the warehouse"
                )
            dim_schema = warehouse_db.table(join.table).schema
            for name in join.columns:
                # Dimension columns are nullable in the view even when NOT
                # NULL at the dimension: a fact row whose join key has no
                # mirrored dimension row materialises NULL (found by the
                # delta-rule verifier's unmatched-key micro-databases).
                column = dim_schema.column(name)
                columns.append(Column(column.name, column.datatype, nullable=True))
        storage_key = (
            self._key if self._key in definition.columns else None
        )
        storage_schema = TableSchema(
            definition.name, columns, primary_key=storage_key
        )
        self.table: Table = warehouse_db.create_table(storage_schema)
        self._m_refresh = warehouse_db.metrics.counter(
            "warehouse.view.refresh", view=definition.name
        )

    # ------------------------------------------------------------------ state
    def rows(self) -> list[tuple[Any, ...]]:
        return sorted(self.table.scan_values())

    def initialize(self, base_rows: Iterable[tuple[Any, ...]], txn: Transaction) -> int:
        """Populate the view from a full base-table extract."""
        count = 0
        for row in base_rows:
            projected = self._qualify_and_project(row)
            if projected is not None:
                self.table.insert(txn, projected, mode=InsertMode.BULK_INTERNAL)
                count += 1
        return count

    def recompute(self, base_rows: Iterable[tuple[Any, ...]]) -> list[tuple[Any, ...]]:
        """Pure recomputation (no storage, no costs) — the testing oracle."""
        result = []
        for row in base_rows:
            projected = self._qualify_and_project(row)
            if projected is not None:
                result.append(projected)
        return sorted(result)

    # -------------------------------------------------------- op-delta path
    def apply_operation(self, op: OpDelta, txn: Transaction) -> Maintainability:
        """Maintain the view from one Op-Delta; returns the path taken, the
        one :func:`~repro.core.selfmaint.replay_kind` decides for the
        statement's shape."""
        if op.table != self.definition.base_table:
            return Maintainability.OP_ONLY  # not our base table: no-op
        level = replay_kind(self.definition, op.statement)
        if level is Maintainability.NOT_SELF_MAINTAINABLE:
            raise WarehouseError(
                f"view {self.definition.name!r} cannot be maintained from "
                f"this {op.kind.value} without querying the sources"
            )
        with self._db.tracer.span(
            "warehouse.view.apply_op", view=self.definition.name
        ):
            if op.kind is not OpKind.INSERT and level is Maintainability.OP_ONLY:
                self._executor.execute(self.rewritten(op.statement), txn)
            else:
                self._apply_derived_images(op, txn)
        self._m_refresh.inc()
        return level

    def rewritten(self, statement: ast.Statement) -> ast.Statement:
        """An UPDATE or DELETE on the base table as the one statement on the
        storage table that maintains the view — what the row path executes
        and the columnar path compiles.

        Valid only on the OP_ONLY path: every referenced column is
        projected, and membership cannot change.  The rewrite moves the
        statement's literals without reading them, so a parsed statement's
        shape is rewritten once (filed on its template under the storage
        table's version) and its literals bound into the result — the
        executor then finds that shape's access, as the mirror's does.
        """
        return reshaped(
            statement, self.table.version, "view-rewrite", self._onto_storage
        )

    def _onto_storage(self, stmt: ast.Statement) -> ast.Statement:
        """``stmt`` on the storage table: narrowed to the view, and every
        reference qualified by the base table's name re-homed onto it."""
        base, name = self.definition.base_table, self.definition.name
        if isinstance(stmt, ast.UpdateStmt):
            onto = ast.UpdateStmt(name, stmt.assignments, self._narrow(stmt.where))
        elif isinstance(stmt, ast.DeleteStmt):
            onto = ast.DeleteStmt(name, self._narrow(stmt.where))
        else:  # inserts take _apply_derived_images
            raise WarehouseError("unexpected statement kind on the rewrite path")

        def rehome(node: ast.Expression) -> ast.Expression:
            if isinstance(node, ast.ColumnRef) and node.table == base:
                return dataclasses.replace(node, table=name)
            return node

        return ast.map_expressions(onto, lambda expr: ast.rewrite(expr, rehome))

    def _narrow(self, where: ast.Expression | None) -> ast.Expression | None:
        """Conjoin the view's selection predicate with the operation's WHERE.

        The operation's predicate may match base rows outside the view; the
        view predicate keeps the rewrite from touching rows that were never
        materialised (all referenced columns are projected on this path).
        """
        if self._predicate is None:
            return where
        if where is None:
            return self._predicate
        return ast.BinaryOp("AND", self._predicate, where)

    def _apply_derived_images(self, op: OpDelta, txn: Transaction) -> None:
        """Maintain from the value delta the operation derives (hybrid path).

        An INSERT carries its rows; UPDATE/DELETE need the captured before
        images, from which the operation itself yields the after images.
        """
        if op.kind is not OpKind.INSERT and op.before_image is None:
            raise WarehouseError(
                f"view {self.definition.name!r} needs before images for this "
                f"{op.kind.value} but the Op-Delta was captured lean "
                "(configure a hybrid capture policy)"
            )
        for before, after in derive_row_images(op, self._base_columns):
            self._apply_images(before, after, txn)

    def _apply_images(
        self,
        before: tuple[Any, ...] | None,
        after: tuple[Any, ...] | None,
        txn: Transaction,
    ) -> None:
        """Turn one base-row ``(before, after)`` image pair into storage DML.

        The one place row images meet the view: a qualifying before image
        leaves, a qualifying after image enters.  Both maintenance paths
        feed it — value deltas the images they carry, Op-Deltas the images
        :func:`~repro.core.opdelta.derive_row_images` derives.
        """
        if self._qualifies(before):
            self._delete_by_key(before, txn)
        projected = self._qualify_and_project(after)
        if projected is not None:
            self.table.insert(txn, projected)

    # ------------------------------------------------------ columnar support
    # Public seams for :mod:`repro.columnar.apply`: the columnar insert path
    # needs the view's predicate and base layout without reaching into
    # privates.  Semantics stay defined here.

    @property
    def predicate(self) -> ast.Expression | None:
        """The view's selection predicate AST (None selects everything)."""
        return self._predicate

    @property
    def base_columns(self) -> tuple[str, ...]:
        """Base-table column names, in storage order."""
        return tuple(self._base_columns)

    def note_columnar_refresh(self) -> None:
        """Count a columnar maintenance application as a view refresh."""
        self._m_refresh.inc()

    # ------------------------------------------------------ value-delta path
    def apply_value_delta(self, records, txn: Transaction) -> None:
        """Maintain the view from row-image deltas (the classic path)."""
        with self._db.tracer.span(
            "warehouse.view.apply_value_delta", view=self.definition.name
        ):
            self._apply_value_delta(records, txn)
        self._m_refresh.inc()

    def _apply_value_delta(self, records, txn: Transaction) -> None:
        for record in records:
            if record.kind.name == "UPSERT":
                # Provenance unknown — remove any old image, then re-add.
                self._delete_by_key_if_present(record.after, txn)
            self._apply_images(record.before, record.after, txn)

    # --------------------------------------------------------------- plumbing
    def _qualifies(self, row: tuple[Any, ...] | None) -> bool:
        return row is not None and self._qualifies_kernel(row, NO_SESSION)

    def _project(self, row: tuple[Any, ...]) -> tuple[Any, ...]:
        projected = [row[slot] for slot in self._projection]
        join = self.definition.join
        if join is not None and join.columns:
            dim_values = self._dim_lookup(
                row[self.base_schema.column_index(join.left_column)]
            )
            for name in join.columns:
                dim_schema = self._db.table(join.table).schema
                projected.append(
                    dim_values[dim_schema.column_index(name)]
                    if dim_values is not None
                    else None
                )
        return tuple(projected)

    def _qualify_and_project(self, row: tuple[Any, ...] | None):
        if row is None or not self._qualifies(row):
            return None
        return self._project(row)

    def _dim_lookup(self, key: Any) -> tuple[Any, ...] | None:
        join = self.definition.join
        assert join is not None
        dim = self._db.table(join.table)
        row_ids = _keyed(dim, join.right_column, key)
        if row_ids is not None:
            for row_id in row_ids:
                return dim.read(row_id)
            return None
        position = dim.schema.column_index(join.right_column)
        for _rid, values in dim.scan():
            if values[position] == key:
                return values
        return None

    def _delete_by_key(self, base_row: tuple[Any, ...], txn: Transaction) -> None:
        if not self._delete_by_key_if_present(base_row, txn):
            raise WarehouseError(
                f"view {self.definition.name!r}: expected a materialised row "
                "to delete but found none (view state diverged)"
            )

    def _delete_by_key_if_present(
        self, base_row: tuple[Any, ...], txn: Transaction
    ) -> bool:
        if self._key is None or self._key not in self.definition.columns:
            raise WarehouseError(
                f"view {self.definition.name!r} does not project its key; "
                "image-based maintenance cannot locate rows"
            )
        key_value = base_row[self.base_schema.column_index(self._key)]
        # A projected key is the storage table's primary key (__init__), so
        # the chooser finds its rows through the table's unique B-tree.
        row_ids = _keyed(self.table, self._key, key_value)
        assert row_ids is not None
        for row_id in row_ids:
            self.table.delete(txn, row_id)
            return True
        return False


def _keyed(table: Table, column: str, key: Any) -> Iterable[RowId] | None:
    """The rows of ``table`` whose ``column`` is ``key``, as the access-path
    chooser reads them: their RowIds through an index, ``None`` when it
    scans.  A NULL key equals no value, so it names no row and probes
    nothing."""
    if key is None:
        return ()
    where = ast.BinaryOp("=", ast.ColumnRef(column), ast.Literal(key))
    return choose_path(table, table.name, where).row_ids
