"""The reference value-delta apply: what prepared templates, literal-row
reads and the one tuple kernel replaced, kept as the oracle
``tests/test_property_value_apply.py`` compares them with.

Three deleted pieces, as they stood:

* the **tree builders** of ``ValueDeltaIntegrator`` — ``statements_for`` wrote
  a fresh ``DELETE … WHERE key = k`` / ``INSERT … VALUES (row)`` tree for every
  record, so the executor ran every per-shape builder for every statement;
  :class:`TreeRouteIntegrator` is the integrator on that route (it keeps the
  new "a DELETE of a DELETE/UPDATE record must find its row" rule, which is
  about the record, not about how its statement is made);
* the **per-cell maker lists** of ``insert_rows_maker`` — one
  ``expression_maker`` per VALUES cell, one kernel call per cell and row;
* the **per-assignment maker list** of the executor's ``_Access.sets`` — one
  kernel per ``SET column = expr``, collected into a dict per matched row.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

from repro.extraction.deltas import ChangeKind, DeltaBatch
from repro.sql import ast_nodes as ast
from repro.sql.expressions import (
    NO_SESSION,
    Binding,
    Compiled,
    Slot,
    expression_maker,
    insert_arranger,
)
from repro.warehouse import ValueDeltaIntegrator


# ------------------------------------------------------------ tree builders
def statements_for(
    record, target: str, key_column: str, key_index: int
) -> list[ast.Statement]:
    """DELETE by key, then (unless the row is gone) INSERT the after image."""

    def delete_stmt(row: tuple[Any, ...]) -> ast.DeleteStmt:
        key = ast.BinaryOp(
            "=", ast.ColumnRef(key_column), ast.Literal(row[key_index])
        )
        return ast.DeleteStmt(target, key)

    if record.kind is ChangeKind.DELETE:
        assert record.before is not None
        return [delete_stmt(record.before)]
    assert record.after is not None
    # UPDATE replaces its before image.  UPSERT (timestamp extraction)
    # has unknown provenance: delete any existing image of the final
    # state, then insert it.
    replaced = record.after
    if record.kind is ChangeKind.UPDATE:
        assert record.before is not None
        replaced = record.before
    literals = tuple(ast.Literal(v) for v in record.after)
    return [
        delete_stmt(replaced),
        ast.InsertStmt(target, None, rows=(literals,)),
    ]


def batch_statements(
    batch: DeltaBatch, target: str, key_column: str, key_index: int
) -> Iterator[tuple[ast.Statement, Any]]:
    """``(statement, record)`` for a whole batch: one array INSERT per run of
    insert records (no one record: ``None``), ``statements_for`` every other."""
    pending_inserts: list[tuple[Any, ...]] = []

    def flush():
        if pending_inserts:
            rows = tuple(
                tuple(ast.Literal(v) for v in row) for row in pending_inserts
            )
            pending_inserts.clear()
            yield ast.InsertStmt(target, None, rows=rows), None

    for record in batch.records:
        if record.kind is ChangeKind.INSERT:
            assert record.after is not None
            pending_inserts.append(record.after)
            continue
        yield from flush()
        for statement in statements_for(record, target, key_column, key_index):
            yield statement, record
    yield from flush()


class TreeRouteIntegrator(ValueDeltaIntegrator):
    """The value integrator with every statement built as a tree."""

    def _batch_statements(self, batch, key_column, key_index):
        for statement, record in batch_statements(
            batch, batch.table, key_column, key_index
        ):
            yield statement, (
                isinstance(statement, ast.DeleteStmt)
                and record.kind is not ChangeKind.UPSERT
            )


# ------------------------------------------------------ per-cell maker lists
def insert_rows_by_cell(
    stmt: ast.InsertStmt,
    columns: Sequence[str],
    mismatch: Callable[[str], Exception],
    bind: Binding,
    slot: Slot,
) -> Callable[[Sequence[Any]], Callable[[Any], Iterator[tuple[Any, ...]]]]:
    """``insert_rows_maker`` as it was: one maker, and one kernel, per cell."""
    arrange = insert_arranger(stmt, columns, mismatch)
    makers = [
        [expression_maker(expr, bind, slot) for expr in expr_row]
        for expr_row in stmt.rows
    ]

    def make(values: Sequence[Any]) -> Callable[[Any], Iterator[tuple[Any, ...]]]:
        compiled = [[maker(values, NO_SESSION) for maker in row] for row in makers]

        def rows(context: Any) -> Iterator[tuple[Any, ...]]:
            for kernels in compiled:
                yield arrange(tuple(kernel((), context) for kernel in kernels))

        return rows

    return make


def set_list_by_assignment(
    assignments: Sequence[ast.Assignment], bind: Binding, slot: Slot
) -> Callable[[Sequence[Any], Any], Callable[[Any], dict[str, Any]]]:
    """``_Access.sets`` and ``Executor._update`` as they were: a maker per
    assignment, and per row a dict of each kernel's value."""
    makers = [(a.column, expression_maker(a.expr, bind, slot)) for a in assignments]

    def make(values: Sequence[Any], context: Any) -> Callable[[Any], dict[str, Any]]:
        kernels: list[tuple[str, Compiled]] = [
            (column, maker(values, context)) for column, maker in makers
        ]
        return lambda row: {column: kernel(row) for column, kernel in kernels}

    return make
