"""The statement executor.

How each table is read — index lookup, index range scan or full scan — is
decided by the one access-path chooser, :func:`repro.sql.planner.choose_path`.
SELECT reads through the contract of :mod:`repro.sql.source` only, so it runs
over anything that satisfies it; every other statement needs an engine
:class:`Database` and a transaction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..engine.database import Database
from ..engine.rows import RowId
from ..engine.schema import Column, TableSchema
from ..engine.table import InsertMode, PageFilter, Table
from ..engine.transactions import Transaction
from ..engine.types import type_from_sql
from ..errors import SqlAnalysisError
from . import ast_nodes as ast
from .expressions import (
    CONSTANT,
    NOW_KEY,
    RANDOM_KEY,
    USER_KEY,
    Compiled,
    Maker,
    RowBinding,
    Slot,
    compile_expression,
    compile_page_filter,
    compile_row,
    insert_arranger,
    insert_rows_maker,
    page_filter_maker,
    set_list_maker,
    walk,
)
from .planner import (
    AccessPath, Sarg, choose_path, sargs, settle_bounds, settle_path,
)
from .source import RowSource, SourceDatabase
from .templates import StatementTemplate, shaped


@dataclass
class Result:
    """Outcome of one statement."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    rows_affected: int = 0
    plan: str = ""

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlAnalysisError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)


class _Scope(RowBinding):
    """One statement's row layout: which slot each column reference reads.

    A table in scope contributes only the columns the statement reads (see
    :func:`_columns_read`), in schema order.  Joins concatenate value tuples,
    so a joined table's columns follow the columns already in scope.  A bare
    name reads the right-most table that has it; ``alias.name`` reads its
    own table.
    """

    def __init__(self) -> None:
        super().__init__(())  # references resolve against the tables instead
        # (alias, schema, column position -> slot) per table, in join order.
        self._tables: list[tuple[str, TableSchema, dict[int, int]]] = []
        self._width = 0

    def add(self, schema: TableSchema, alias: str, positions: Sequence[int]) -> None:
        """Bring a table into scope, to the right of those already there.

        ``positions`` are the columns of it that the scanned rows carry.
        """
        slots = {
            position: self._width + offset
            for offset, position in enumerate(positions)
        }
        self._tables.append((alias, schema, slots))
        self._width += len(slots)

    def columns(self) -> list[str]:
        """Column name per slot — what ``*`` selects."""
        return [
            schema.column_names[position]
            for _alias, schema, slots in self._tables
            for position in slots
        ]

    def slot(self, ref: ast.ColumnRef) -> int | None:
        for alias, schema, slots in reversed(self._tables):
            if ref.table in (None, alias) and schema.has_column(ref.name):
                return slots.get(schema.column_index(ref.name))
        return None


def _resolved(ref: ast.ColumnRef, scope: _Scope) -> int | str:
    """What ``ref`` reads: its slot, or its name where it reads none."""
    slot = scope.slot(ref)
    return ref.name if slot is None else slot


def _columns_read(
    tables: Sequence[tuple[str, TableSchema]],
    expressions: Iterable[ast.Expression | None],
) -> list[tuple[int, ...]]:
    """Per table of a statement, the column positions its expressions read.

    ``tables`` are the statement's ``(alias, schema)`` in join order.  The
    answer may be too wide — a bare name counts for every table that has the
    column — but never too narrow, and deciding it never raises: on ``*`` or
    a reference no table answers, every column of every table is read and
    the compiled kernel is left to diagnose the reference when a row reaches
    it.
    """
    read: list[set[int]] = [set() for _ in tables]
    for expression in expressions:
        if expression is None:
            continue
        for node in walk(expression):
            resolved = False
            if isinstance(node, ast.ColumnRef):
                for (alias, schema), positions in zip(tables, read):
                    if node.table in (None, alias) and schema.has_column(node.name):
                        positions.add(schema.column_index(node.name))
                        resolved = True
            if not resolved and isinstance(node, (ast.ColumnRef, ast.Star)):
                return [tuple(range(len(schema.columns))) for _alias, schema in tables]
    return [tuple(sorted(positions)) for positions in read]


class _Access:
    """How UPDATEs or DELETEs of one shape read and rewrite their table.

    Everything here is decided without a literal's value — the columns
    decoded, the WHERE's sargs (which an index could answer, and whether
    they are the whole WHERE, so bound a scan), the emitted WHERE and SET
    kernels short of their constants — so it is built once per shape and
    per version of the table's catalog entry
    (:attr:`repro.engine.table.Table.version`); a statement adds its
    literals and the session context.
    """

    __slots__ = ("columns", "sargs", "whole", "keep", "sets")

    def __init__(
        self, table: Table, stmt: ast.UpdateStmt | ast.DeleteStmt, slot: Slot
    ) -> None:
        (self.columns,) = _columns_read(
            [(table.name, table.schema)], ast.expressions(stmt)
        )
        scope = _Scope()
        scope.add(table.schema, table.name, self.columns)
        self.sargs, self.whole = sargs(table, table.name, stmt.where, slot)
        #: The WHERE as a filter of the narrow rows, a page of them at a time.
        self.keep: Maker = page_filter_maker(stmt.where, scope, slot)
        #: The columns an UPDATE assigns, and their new values as one kernel.
        self.sets: tuple[tuple[str, ...], Maker] = set_list_maker(
            getattr(stmt, "assignments", ()), scope, slot
        )


class _Dml:
    """What DML statements of one shape do to their table, short of their
    literals: an INSERT's row maker and its rows per statement, or an UPDATE's
    or DELETE's :class:`_Access`.  Filed beside it under
    :attr:`~repro.engine.table.Table.version`; both doors of
    :class:`Executor` run it (:meth:`Executor._dml`)."""

    __slots__ = ("rows", "width", "direct", "access", "update")

    def __init__(self, table: Table, stmt: ast.Statement, slot: Slot) -> None:
        self.rows: Callable[[Sequence[Any]], Callable[[Any], Iterator[tuple]]] | None
        self.update = isinstance(stmt, ast.UpdateStmt)
        if isinstance(stmt, ast.InsertStmt):
            columns = table.schema.column_names
            self.rows = insert_rows_maker(stmt, columns, SqlAnalysisError, CONSTANT, slot)
            self.width = len(stmt.rows)
            #: Whether a statement's row *is* its literals: one positional
            #: row, each cell the shape's next literal, one per column.
            self.direct = stmt.columns is None and self.width == 1 and [
                slot(cell.value) if isinstance(cell, ast.Literal) else None
                for cell in stmt.rows[0]
            ] == list(range(len(columns)))
            return
        self.rows = None
        self.access = _Access(table, stmt, slot)  # type: ignore[arg-type]


class Executor:
    """Executes parsed statements against one database."""

    def __init__(self, database: SourceDatabase) -> None:
        self._db = database
        # Session randomness for RANDOM(): a *seeded* stream so whole runs
        # stay deterministic, while the value still depends on how many
        # draws preceded it — exactly the volatility the analyzer flags.
        self._rng = random.Random(0x5EED)
        self._context: dict[str, Any] = {}

    # ------------------------------------------------------------------ entry
    def execute(self, statement: ast.Statement, txn: Transaction | None) -> Result:
        self._start()
        if isinstance(statement, ast.SelectStmt):
            return self._select(statement)
        db = self._engine(type(statement).__name__, txn)
        assert txn is not None
        if isinstance(statement, ast.InsertStmt) and statement.select is not None:
            return self._insert_select(db, statement, txn)
        if ast.is_dml(statement):
            table = db.table(statement.table)  # type: ignore[attr-defined]
            dml, literals = shaped(
                statement, table.version, "dml", lambda sh, slot: _Dml(table, sh, slot)
            )
            return self._dml(table, dml, (literals,), txn)
        if isinstance(statement, ast.CreateTableStmt):
            return self._create_table(db, statement)
        if isinstance(statement, ast.CreateIndexStmt):
            return self._create_index(db, statement)
        if isinstance(statement, ast.DropTableStmt):
            db.drop_table(statement.table)
            return Result(plan="drop")
        if isinstance(statement, ast.TruncateStmt):
            removed = db.table(statement.table).truncate()
            return Result(rows_affected=removed, plan="truncate")
        raise SqlAnalysisError(
            f"executor cannot handle {type(statement).__name__} "
            "(transaction-control statements are handled by the session)"
        )

    def execute_prepared(
        self,
        template: StatementTemplate,
        rows: Sequence[Sequence[Any]],
        txn: Transaction | None,
    ) -> Result:
        """Run a statement of ``template``'s DML shape from its values, with
        no tree: ``rows`` holds one vector of cells (its ``binding.values``)
        per row, one for an UPDATE or DELETE and any number for an INSERT,
        which then runs as *one* statement of all of their rows — the body,
        fact and engine calls :meth:`execute` uses for the bound tree."""
        self._start()
        statement = template.statement
        db = self._engine(type(statement).__name__, txn)
        assert txn is not None
        if not ast.is_dml(statement) or getattr(statement, "select", None):
            raise SqlAnalysisError(f"{template.shape!r} does not run from its values")
        if not rows:
            raise SqlAnalysisError(f"{template.shape!r} runs from at least one row")
        width = len(template.kinds)
        for row in rows:
            if len(row) != width:
                raise SqlAnalysisError(
                    f"{template.shape!r} takes {width} values, not {len(row)}"
                )
        table = db.table(statement.table)  # type: ignore[attr-defined]
        dml = template.fact(
            table.version, "dml", lambda: _Dml(table, statement, template.slot)
        )
        template.runs += 1
        return self._dml(table, dml, rows, txn)

    def _start(self) -> None:
        # Session context for volatile functions, fixed per statement:
        # NOW() is the statement's virtual start time (SQL semantics).
        self._context = {
            NOW_KEY: self._db.clock.now,
            RANDOM_KEY: self._rng.random,
            USER_KEY: self._db.name,
        }

    def _engine(self, what: str, txn: Transaction | None) -> Database:
        """The engine database a non-SELECT statement needs, or the refusal."""
        db = self._db
        if txn is None or not isinstance(db, Database):
            raise SqlAnalysisError(
                f"only SELECT runs over {db.name!r} as given: "
                f"{what} needs an engine database and a transaction"
            )
        return db

    # ----------------------------------------------------------------- SELECT
    def _select(self, stmt: ast.SelectStmt) -> Result:
        context = self._context
        if stmt.table is None:
            # Constant SELECT (e.g. SELECT 1 + 1): no row columns in scope.
            row = tuple(
                compile_expression(item.expr, CONSTANT, context)(())
                for item in stmt.items
            )
            columns = [self._item_name(item) for item in stmt.items]
            return Result(columns=columns, rows=[row], plan="const")

        base = self._db.table(stmt.table)
        base_alias = stmt.alias or stmt.table
        joined = [
            (self._db.table(join.table), join.alias or join.table)
            for join in stmt.joins
        ]
        base_read, *joined_read = _columns_read(
            [(alias, table.schema) for table, alias in [(base, base_alias), *joined]],
            [
                stmt.where,
                *(item.expr for item in stmt.items),
                *stmt.group_by,
                *(side for join in stmt.joins for side in (join.left, join.right)),
            ],
        )
        path = choose_path(base, base_alias, stmt.where)
        scope = _Scope()
        scope.add(base.schema, base_alias, base_read)
        # Without a join the WHERE is applied where the base table is read.
        # With one it stays above the join: it may read joined columns, and
        # the probe charges for every base row it is handed.
        pushed = None if stmt.joins else stmt.where
        rows = self._values(
            base, path, base_read, compile_page_filter(pushed, scope, context)
        )
        plan_parts = [f"{stmt.table}:{path.description}"]

        for join, (right, right_alias), right_read in zip(
            stmt.joins, joined, joined_read
        ):
            left_key, right_key = self._join_sides(join, right_alias)
            # The probe key reads the left side only: compile it before the
            # joined table's names come into scope.
            probe = compile_expression(left_key, scope, context)
            build_key = right_read.index(right.schema.column_index(right_key.name))
            rows = self._hash_join(
                rows, probe, right.scan_values(right_read), build_key
            )
            scope.add(right.schema, right_alias, right_read)
            plan_parts.append(f"join({join.table}:hash)")

        above = stmt.where if stmt.joins else None
        keep = compile_page_filter(above, scope, context)
        if keep is not None:
            joined_rows = list(rows)
            rows = [joined_rows[at] for at in keep(joined_rows)]

        aggregated = any(
            isinstance(item.expr, ast.Aggregate) for item in stmt.items
        ) or bool(stmt.group_by)
        if aggregated:
            result, columns = self._aggregate(stmt, rows, scope)
        else:
            result, columns = self._project(stmt, rows, scope)

        if stmt.order_by:
            result = self._order(result, columns, stmt, scope)
        if stmt.limit is not None:
            result = result[: stmt.limit]
        return Result(columns=columns, rows=result, plan=" ".join(plan_parts))

    @staticmethod
    def _values(
        table: RowSource,
        path: AccessPath,
        columns: Sequence[int],
        keep: PageFilter | None,
    ) -> Iterable[tuple[Any, ...]]:
        """What SELECT reads: the ``columns`` of the rows the access path
        names that ``keep`` accepts."""
        if path.row_ids is None:
            return table.scan_values(columns, keep)
        rows = (table.read(row_id, columns) for row_id in path.row_ids)
        if keep is None:
            return rows  # read one by one: a join probe charges in between
        fetched = list(rows)
        return [fetched[at] for at in keep(fetched)]

    @staticmethod
    def _candidates(
        table: Table,
        path: AccessPath,
        columns: Sequence[int],
        keep: PageFilter | None,
        found: Sequence[Sarg],
        literals: Sequence[Any],
    ) -> list[tuple[RowId, tuple[Any, ...]]]:
        """What UPDATE/DELETE read: ``_values`` with each row's id (the scan
        filters as it goes, bounded by ``found`` with these literals; an
        index path's rows are filtered here), every row read before any is
        changed."""
        if path.row_ids is None:
            return list(table.scan(columns, keep, settle_bounds(found, literals)))
        row_ids = list(path.row_ids)
        rows = [table.read(row_id, columns) for row_id in row_ids]
        kept = range(len(rows)) if keep is None else keep(rows)
        return [(row_ids[at], rows[at]) for at in kept]

    def _hash_join(
        self,
        left_rows: Iterable[tuple[Any, ...]],
        probe: Compiled,
        right_rows: Iterable[tuple[Any, ...]],
        build_key: int,
    ) -> Iterator[tuple[Any, ...]]:
        # NULL = NULL is UNKNOWN, in ON as in WHERE: a NULL key is left out
        # of the build side, so a NULL probe finds nothing either.
        build: dict[Any, list[tuple[Any, ...]]] = {}
        for values in right_rows:
            if values[build_key] is not None:
                build.setdefault(values[build_key], []).append(values)
        probe_cpu = self._db.costs.row_scan_cpu
        clock = self._db.clock
        for row in left_rows:
            clock.advance(probe_cpu)
            for values in build.get(probe(row), ()):
                yield row + values

    @staticmethod
    def _join_sides(join: ast.Join, right_alias: str) -> tuple[ast.ColumnRef, ast.ColumnRef]:
        """Split the ON equality into (probe-side ref, build-side ref)."""
        left, right = join.left, join.right
        if left.table == right_alias and right.table != right_alias:
            left, right = right, left
        if right.table not in (None, right_alias):
            raise SqlAnalysisError(
                f"join condition must reference the joined table {right_alias!r}"
            )
        return left, right

    def _project(
        self,
        stmt: ast.SelectStmt,
        rows: Iterable[tuple[Any, ...]],
        scope: _Scope,
    ) -> tuple[list[tuple[Any, ...]], list[str]]:
        columns: list[str] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                columns.extend(scope.columns())
            else:
                columns.append(self._item_name(item))
        project = compile_row(
            [item.expr for item in stmt.items], scope, self._context
        )
        projected = list(map(project, rows))
        return projected, columns

    def _aggregate(
        self,
        stmt: ast.SelectStmt,
        rows: Iterable[tuple[Any, ...]],
        scope: _Scope,
    ) -> tuple[list[tuple[Any, ...]], list[str]]:
        # A grouping column is matched by the slot it reads, or by its name
        # where it reads none (the group key then diagnoses it lazily).
        grouped = [_resolved(ref, scope) for ref in stmt.group_by]
        for item in stmt.items:
            if not isinstance(item.expr, (ast.Aggregate, ast.ColumnRef)):
                raise SqlAnalysisError(
                    "aggregate queries may only select aggregates and "
                    "grouping columns"
                )
            expr = item.expr
            if isinstance(expr, ast.ColumnRef) and _resolved(expr, scope) not in grouped:
                raise SqlAnalysisError(
                    f"column {expr.to_sql()!r} must appear in GROUP BY"
                )
        context = self._context
        groups: dict[tuple, list[tuple[Any, ...]]] = {}
        if stmt.group_by:
            group_key = compile_row(stmt.group_by, scope, context)
            for row in rows:
                groups.setdefault(group_key(row), []).append(row)
        else:
            groups[()] = list(rows)  # global aggregate, over no rows too
        columns = [self._item_name(item) for item in stmt.items]
        # Per item, what reads it: a grouping column from the group's key, an
        # aggregate's argument from each member row (None: COUNT(*)).  The
        # parser admits only a column there, read by slot; one that reads
        # none stays a kernel, to raise when a row reaches it.
        readers: list[Compiled | None] = []
        reader: Compiled | None
        for item in stmt.items:
            expr, reader = item.expr, None
            if isinstance(expr, ast.ColumnRef):
                reader = itemgetter(grouped.index(_resolved(expr, scope)))
            elif isinstance(expr, ast.Aggregate) and expr.argument is not None:
                slot = scope.slot(expr.argument)
                reader = itemgetter(slot) if slot is not None else compile_expression(
                    expr.argument, scope, context
                )
            readers.append(reader)
        result = []
        for key, members in groups.items():
            out: list[Any] = []
            for item, reader in zip(stmt.items, readers):
                if isinstance(item.expr, ast.Aggregate):
                    out.append(self._aggregate_value(item.expr, reader, members))
                else:
                    out.append(reader(key))  # type: ignore[misc]
            result.append(tuple(out))
        return result, columns

    @staticmethod
    def _aggregate_value(
        agg: ast.Aggregate,
        argument: Compiled | None,
        members: list[tuple[Any, ...]],
    ) -> Any:
        if argument is None:
            return len(members)
        values = [v for v in map(argument, members) if v is not None]
        if agg.function == "COUNT":
            return len(values)
        if not values:
            return None
        if agg.function in ("SUM", "AVG"):
            # One C-level pass admits ints and floats; a bool (a number too)
            # or a non-number is looked at value by value.
            if not {int, float}.issuperset(map(type, values)):
                for value in values:
                    if not isinstance(value, (int, float)):
                        raise SqlAnalysisError(
                            f"aggregate {agg.function} requires a number, "
                            f"got {value!r}"
                        )
            return sum(values) if agg.function == "SUM" else sum(values) / len(values)
        if agg.function == "MIN":
            return min(values)
        if agg.function == "MAX":
            return max(values)
        raise SqlAnalysisError(f"unknown aggregate {agg.function!r}")

    def _order(
        self,
        rows: list[tuple[Any, ...]],
        columns: list[str],
        stmt: ast.SelectStmt,
        scope: _Scope,
    ) -> list[tuple[Any, ...]]:
        self._db.clock.advance(self._db.costs.row_scan_cpu * len(rows))
        # The slot each output column reads (None: it reads none).
        slots: list[int | None] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                slots.extend(range(len(scope.columns())))
            else:
                ref = item.expr if isinstance(item.expr, ast.ColumnRef) else None
                slots.append(None if ref is None else scope.slot(ref))
        for order in reversed(stmt.order_by):
            position = self._order_position(order.expr, columns, slots, scope)
            rows.sort(
                key=lambda row: (row[position] is None, row[position]),
                reverse=not order.ascending,
            )
        return rows

    @staticmethod
    def _order_position(
        expr: ast.Expression, columns: list[str], slots: list[int | None], scope: _Scope
    ) -> int:
        """Which output column ``expr`` sorts by: a qualified column by the
        slot it reads, a bare name by output name, anything else as written."""
        if isinstance(expr, ast.ColumnRef):
            slot = None if expr.table is None else scope.slot(expr)
            if slot is not None:
                if slot in slots:
                    return slots.index(slot)
            elif expr.name in columns:
                return columns.index(expr.name)
        rendered = expr.to_sql()
        if rendered in columns:
            return columns.index(rendered)
        raise SqlAnalysisError(
            f"ORDER BY expression {rendered!r} is not in the select list"
        )

    @staticmethod
    def _item_name(item: ast.SelectItem) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.ColumnRef):
            return item.expr.name
        return item.expr.to_sql()

    # -------------------------------------------------------------------- DML
    def _insert_select(
        self, db: Database, stmt: ast.InsertStmt, txn: Transaction
    ) -> Result:
        table = db.table(stmt.table)
        arrange = insert_arranger(stmt, table.schema.column_names, SqlAnalysisError)
        selected = self._select(stmt.select)  # type: ignore[arg-type]
        for row in selected.rows:
            table.insert(txn, arrange(row), mode=InsertMode.BULK_INTERNAL)
        return Result(rows_affected=len(selected.rows), plan="insert-select")

    def _dml(
        self,
        table: Table,
        dml: _Dml,
        bound: Sequence[Sequence[Any]],
        txn: Transaction,
    ) -> Result:
        """The one DML body: a statement of ``dml``'s shape, from the literal
        values in ``bound`` — one vector, or an INSERT's one per row group.

        An INSERT of more than one row is a bulk client insert however its
        rows came (a multi-row VALUES, or array-bound vectors).  An UPDATE or
        DELETE reads every row it touches before it changes any: only the
        columns its WHERE and SET expressions mention are decoded.
        """
        context = self._context
        if dml.rows is not None:
            count = dml.width * len(bound)
            mode = InsertMode.BULK_CLIENT if count > 1 else InsertMode.STATEMENT
            for literals in bound:
                if dml.direct:
                    table.insert(txn, tuple(literals), mode=mode)
                    continue
                for values in dml.rows(literals)(context):
                    table.insert(txn, values, mode=mode)
            return Result(rows_affected=count, plan="insert")
        if len(bound) != 1:
            raise SqlAnalysisError("only an INSERT binds more than one row")
        (literals,) = bound
        access = dml.access
        path = settle_path(access.sargs, literals)
        keep = access.keep(literals, context)
        bounds = access.sargs if access.whole else ()
        matches = self._candidates(table, path, access.columns, keep, bounds, literals)
        if dml.update:
            columns, maker = access.sets
            new_values = maker(literals, context)
            for row_id, values in matches:
                table.update(txn, row_id, dict(zip(columns, new_values(values))))
        else:
            for row_id, _values in matches:
                table.delete(txn, row_id)
        verb = "update" if dml.update else "delete"
        return Result(rows_affected=len(matches), plan=f"{verb}:{path.description}")

    # -------------------------------------------------------------------- DDL
    def _create_table(self, db: Database, stmt: ast.CreateTableStmt) -> Result:
        columns = []
        primary_key = None
        for definition in stmt.columns:
            datatype = type_from_sql(definition.type_name, definition.type_arg)
            nullable = not (definition.not_null or definition.primary_key)
            columns.append(Column(definition.name, datatype, nullable))
            if definition.primary_key:
                if primary_key is not None:
                    raise SqlAnalysisError(
                        f"table {stmt.table!r} declares multiple primary keys"
                    )
                primary_key = definition.name
        schema = TableSchema(stmt.table, columns, primary_key=primary_key)
        db.create_table(schema)
        return Result(plan="create-table")

    def _create_index(self, db: Database, stmt: ast.CreateIndexStmt) -> Result:
        table = db.table(stmt.table)
        table.create_index(stmt.name, stmt.column, unique=stmt.unique)
        return Result(plan="create-index")
