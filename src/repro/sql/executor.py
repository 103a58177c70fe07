"""The statement executor.

How each table is read — index lookup, index range scan or full scan — is
decided by the one access-path chooser (:mod:`repro.sql.planner`): a WHERE's
sargs are listed once per shape and settled per statement.  Everything else
a statement's shape decides is decided once as well, and filed under the
catalog versions of the tables it reads (:func:`repro.sql.templates.shaped`):
DML as :class:`_Dml`, SELECT as :class:`_Select`.  A statement supplies its
literals and its session context.  SELECT reads through the contract of
:mod:`repro.sql.source` only, so it runs over anything that satisfies it;
every other statement needs an engine :class:`Database` and a transaction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..engine.database import Database
from ..engine.rows import RowId
from ..engine.schema import Column, TableSchema
from ..engine.table import InsertMode, PageFilter, PagePartials, Table
from ..engine.transactions import Transaction
from ..engine.types import IntegerType, type_from_sql
from ..errors import SqlAnalysisError
from ..scope import Scope
from . import ast_nodes as ast
from .expressions import (
    CONSTANT,
    NO_SESSION,
    NOW_KEY,
    RANDOM_KEY,
    USER_KEY,
    Compiled,
    Maker,
    RowBinding,
    Slot,
    expression_maker,
    insert_arranger,
    insert_rows_maker,
    no_slot,
    page_filter_maker,
    referenced_functions,
    row_maker,
    set_list_maker,
    walk,
)
from .planner import AccessPath, Sarg, sargs, settle_bounds, settle_path
from .source import RowSource, SourceDatabase
from .templates import SHAPE, StatementTemplate, shaped


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

    def column_at(self, slot: int) -> tuple[int, Column]:
        """The table ``slot`` reads, by its place in join order, and the
        column of it."""
        for number, (_alias, schema, slots) in enumerate(self._tables):
            for position, at in slots.items():
                if at == slot:
                    return number, schema.columns[position]
        raise KeyError(slot)


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


#: What an aggregation keeps of a group: its row count, then per argument
#: slot read the non-NULL values there in row order — or, for an INTEGER
#: column of an engine table, their fold (:data:`_Fold`).
_Entry = list[Any]
#: Group key -> entry, in first-seen row order: a partial aggregation.
_Groups = dict[tuple, _Entry]
#: Makes the partial of some rows.
_Partial = Callable[[Iterable[tuple[Any, ...]]], _Groups]
#: An INTEGER argument's non-NULL values as (count, sum, min, max), or as
#: (count, sum) where no MIN or MAX reads them.
_Fold = tuple[Any, ...]
#: The fold of no value: MIN and MAX of it are NULL.
_NO_VALUES: _Fold = (0, 0, None, None)


#: The classes a SUM or AVG takes without looking at a value.
_NUMBERS = frozenset({int, float})


def _fold(values: list[int]) -> _Fold:
    """The fold of ``values``, each an ``int``."""
    if not values:
        return _NO_VALUES
    return len(values), sum(values), min(values), max(values)


def _tally(values: list[int]) -> _Fold:
    """The fold of ``values`` short of their least and greatest."""
    if not values:
        return _NO_VALUES
    return len(values), sum(values)


def _retallied(fold: _Fold, less: _Fold, more: _Fold) -> _Fold:
    """``fold``, a :func:`_tally`, with the values ``less`` tallies taken
    out and those ``more`` tallies put in: exact, as integer addition is."""
    count = fold[0] - less[0] + more[0]
    return (count, fold[1] - less[1] + more[1]) if count else _NO_VALUES


def _retally(held: _Groups, less: _Groups, more: _Groups) -> _Groups:
    """The partial of one group ``held``, with the rows of ``less`` taken
    out and those of ``more`` put in: its count and every tallied
    argument's, retallied (:class:`~repro.engine.table.PagePartials`)."""
    old, gone, came = held[()], less[()], more[()]
    return {(): [
        old[0] - gone[0] + came[0], *map(_retallied, old[1:], gone[1:], came[1:])
    ]}


def _folded(folds: Iterable[_Fold]) -> _Fold:
    """The fold of the values of all ``folds``, made alike: exact, as
    integer addition is, in whatever order they come."""
    counted = [fold for fold in folds if fold[0]]
    if not counted:
        return _NO_VALUES
    counts, totals, *extremes = zip(*counted)
    if not extremes:
        return sum(counts), sum(totals)
    lows, highs = extremes
    return sum(counts), sum(totals), min(lows), max(highs)


#: Folds an argument's non-NULL values: :func:`_fold` or :func:`_tally`.
_Folder = Callable[[list[int]], _Fold]


def _entry(
    rows: list[tuple[Any, ...]],
    kept: Sequence[int],
    folds: Sequence[_Folder | None],
) -> _Entry:
    """One group's entry over its ``rows``: the count, then the non-NULL
    values at each slot of ``kept``, folded where ``folds`` has a folder."""
    values = [[v for row in rows if (v := row[at]) is not None] for at in kept]
    return [
        len(rows),
        *(each if fold is None else fold(each) for each, fold in zip(values, folds)),
    ]


def _aggregate_value(
    agg: ast.Aggregate, count: int, values: list[Any] | _Fold | None, checked: bool
) -> Any:
    """``agg`` of a group of ``count`` rows whose argument has the non-NULL
    ``values``, or their fold (None: COUNT(*)); ``checked`` when a SUM or
    AVG must look at what class those values are."""
    if values is None:
        return count
    folded = isinstance(values, tuple)
    number = values[0] if folded else len(values)
    if agg.function == "COUNT":
        return number
    if not number:
        return None
    if agg.function in ("SUM", "AVG"):
        if folded:
            total = values[1]
        else:
            # Ints and floats pass in one look at the classes; a bool (a
            # number too) or a non-number is looked at value by value.
            if checked and not _NUMBERS.issuperset(map(type, values)):
                for value in values:
                    if not isinstance(value, (int, float)):
                        raise SqlAnalysisError(
                            f"aggregate {agg.function} requires a number, "
                            f"got {value!r}"
                        )
            total = sum(values)
        return total if agg.function == "SUM" else total / number
    if agg.function == "MIN":
        return values[2] if folded else min(values)
    if agg.function == "MAX":
        return values[3] if folded else max(values)
    raise SqlAnalysisError(f"unknown aggregate {agg.function!r}")


def _item_name(item: ast.SelectItem) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.name
    return item.expr.to_sql()


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


def _sort_key(at: int) -> Callable[[tuple[Any, ...]], tuple[bool, Any]]:
    """What rows sort by to order them by their value at ``at``: NULL last
    (first, reversed)."""
    return lambda row: (row[at] is None, row[at])


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


class _Select:
    """What SELECTs of one shape do, short of their literals.

    Read off the shape and the schemas and index lists of the tables it
    names, never off a literal's value: the columns read of each table and
    the row layout they make (:class:`_Scope`), the WHERE's sargs, the WHERE
    as a page filter (where the base table is read, or above the joins),
    each join's probe, the projection or the aggregation's group key,
    readers and folds, the slot each output column reads, and — where it may
    keep them — the scan aggregate's per-page partials, for one set of
    literal values at a time (:class:`~repro.engine.table.PagePartials`),
    which go with the plan.  Built once per shape and filed
    under the catalog versions of every table read
    (:meth:`Executor._select`); a statement adds its literals and its
    session context.  The output names, ORDER BY and LIMIT are read off the
    statement itself: a scalar expression is named as written, literals and
    all.
    """

    __slots__ = (
        "table", "joined", "scope", "reads", "sargs", "keep", "joins", "above",
        "aggregated", "project", "constants", "refusal", "grouped", "readers",
        "folds", "partial", "retally", "paged", "kept", "slots",
    )

    def __init__(
        self, tables: Sequence[RowSource], stmt: ast.Statement, slot: Slot
    ) -> None:
        assert isinstance(stmt, ast.SelectStmt)
        self.table = stmt.table
        self.joined = "".join(f" join({join.table}:hash)" for join in stmt.joins)
        aliases = [stmt.alias or stmt.table, *(j.alias or j.table for j in stmt.joins)]
        scope = self.scope = _Scope()
        self.reads = _columns_read(
            [(alias, table.schema) for table, alias in zip(tables, aliases)],
            [
                stmt.where,
                *(item.expr for item in stmt.items),
                *stmt.group_by,
                *(side for join in stmt.joins for side in (join.left, join.right)),
            ],
        )
        self.sargs: list[Sarg] = []
        if tables:
            self.sargs = sargs(tables[0], aliases[0], stmt.where, slot)[0]
            scope.add(tables[0].schema, aliases[0], self.reads[0])
        # Without a join the WHERE is applied where the base table is read.
        # With one it stays above the join: it may read joined columns, and
        # the probe charges for every base row it is handed.
        self.keep = page_filter_maker(
            None if stmt.joins else stmt.where, scope, slot
        )
        #: Per join: the joined table's columns read, the probe, the build
        #: key's place among those columns, and what a probe that matches
        #: nothing joins (no row, or for a LEFT JOIN one row of NULLs).
        self.joins: list[tuple[tuple[int, ...], Compiled, int, tuple]] = []
        for join, right, alias, read in zip(
            stmt.joins, tables[1:], aliases[1:], self.reads[1:]
        ):
            left_key, right_key = _join_sides(join, alias)
            # The probe key reads the left side only: compile it before the
            # joined table's names come into scope.  A column reads no
            # literal and no session value, so one kernel serves the shape.
            probe = expression_maker(left_key, scope, slot)((), NO_SESSION)
            build_key = read.index(right.schema.column_index(right_key.name))
            miss = ((None,) * len(read),) if join.outer else ()
            self.joins.append((read, probe, build_key, miss))
            scope.add(right.schema, alias, read)
        self.above = page_filter_maker(stmt.where if stmt.joins else None, scope, slot)
        # A constant SELECT (no FROM) is one projected row.
        self.aggregated = bool(tables) and (
            any(isinstance(item.expr, ast.Aggregate) for item in stmt.items)
            or bool(stmt.group_by)
        )
        self.project = row_maker(
            [item.expr for item in stmt.items], scope, slot
        ) if tables and not self.aggregated else None
        #: A constant SELECT's items, each on its own: no row for a ``*``.
        self.constants: list[Maker] = [] if tables else [
            expression_maker(item.expr, scope, slot) for item in stmt.items
        ]
        self.refusal = self._aggregation(tables, stmt, slot) if self.aggregated else None
        # A full scan aggregates a page at a time, and this plan keeps each
        # page's partial for the next statement of its literals.  A partial
        # made of slots alone cannot raise, as kept ones must not: a GROUP BY
        # column that reads none is read by the rows path, and diagnosed
        # when the first row reaches it.
        self.paged = (
            self.aggregated and not stmt.joins and isinstance(tables[0], Table)
            and all(scope.slot(ref) is not None for ref in stmt.group_by)
        )
        # Kept only for a statement of a template, and not when the WHERE
        # reads a session value (:data:`~repro.sql.ast_nodes.VOLATILE_FUNCTIONS`),
        # which rows alone do not fix.
        self.kept = PagePartials(self.retally) if self.paged and slot is not no_slot and (
            referenced_functions(stmt.where).isdisjoint(ast.VOLATILE_FUNCTIONS)
        ) else None
        #: Per output column, the slot it reads (None: it reads none).
        self.slots: list[int | None] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                self.slots.extend(range(len(scope.columns())))
            else:
                ref = item.expr if isinstance(item.expr, ast.ColumnRef) else None
                self.slots.append(None if ref is None else scope.slot(ref))

    def _aggregation(
        self, tables: Sequence[RowSource], stmt: ast.SelectStmt, slot: Slot
    ) -> str | None:
        """Plan the aggregation, or say why a statement of it is refused."""
        scope = self.scope
        self.retally: Callable[[_Groups, _Groups, _Groups], _Groups] | None = None
        # A grouping column is matched by the slot it reads, or by its name
        # where it reads none (the group key then diagnoses it lazily).
        grouped = [_resolved(ref, scope) for ref in stmt.group_by]
        for item in stmt.items:
            expr = item.expr
            if not isinstance(expr, (ast.Aggregate, ast.ColumnRef)):
                return "aggregate queries may only select aggregates and grouping columns"
            if isinstance(expr, ast.ColumnRef) and _resolved(expr, scope) not in grouped:
                return f"column {expr.to_sql()!r} must appear in GROUP BY"
        # Per item, what reads it: a grouping column its place in the key;
        # an aggregate's argument its place in an entry, past the count
        # (None: COUNT(*)).  The parser admits only a column there, read by
        # slot, and an entry keeps one list per slot read — or, for an
        # INTEGER column of an engine table, whose values admission made
        # ints, their fold.  One that reads none stays a kernel: it raises
        # for whatever row reaches it, so it is asked once per member at the
        # end, as it was of each row.  No column reads a literal or a
        # session value, so each kernel here serves the shape.  An argument
        # is ``checked`` — a SUM or AVG looks at what its values are — unless
        # an engine table's admission made them numbers (not CHAR).
        # A MIN or MAX folds its argument's least and greatest value too.
        ranged = {
            scope.slot(item.expr.argument)
            for item in stmt.items
            if isinstance(item.expr, ast.Aggregate)
            and item.expr.function in ("MIN", "MAX")
            and item.expr.argument is not None
        }
        kept: list[int] = []
        self.grouped = bool(grouped)
        self.folds: list[_Folder | None] = []
        self.readers: list[
            tuple[ast.Aggregate | None, int | Compiled | None, bool]
        ] = []
        for item in stmt.items:
            expr, reader, checked = item.expr, None, True
            if isinstance(expr, ast.ColumnRef):
                key_at = grouped.index(_resolved(expr, scope))
                self.readers.append((None, key_at, checked))
                continue
            assert isinstance(expr, ast.Aggregate)
            if expr.argument is not None:
                at = scope.slot(expr.argument)
                if at is None:
                    reader = expression_maker(expr.argument, scope, slot)((), NO_SESSION)
                else:
                    number, column = scope.column_at(at)
                    engine = isinstance(tables[number], Table)
                    admitted = column.datatype.canonical_class
                    checked = not (engine and admitted in _NUMBERS)
                    if at not in kept:
                        kept.append(at)
                        integer = engine and isinstance(column.datatype, IntegerType)
                        self.folds.append(
                            (_fold if at in ranged else _tally) if integer else None
                        )
                    reader = 1 + kept.index(at)
            self.readers.append((expr, reader, checked))
        folds = self.folds
        group_key = row_maker(stmt.group_by, scope, slot)((), NO_SESSION)

        def partial(rows: Iterable[tuple[Any, ...]]) -> _Groups:
            if not grouped:
                return {(): _entry(list(rows), kept, folds)}
            members: dict[tuple, list[tuple[Any, ...]]] = {}
            for row in rows:
                members.setdefault(group_key(row), []).append(row)
            return {key: _entry(group, kept, folds) for key, group in members.items()}

        self.partial: _Partial = partial
        # Partials of one group whose every argument is tallied take a
        # change differentially — counts and sums do; the least and
        # greatest value, a FLOAT's value list and a grouping's first-seen
        # order do not — so the plan's store keeps their total, retallied
        # by each page's partial as it is made again.
        if not grouped and all(fold is _tally for fold in folds):
            self.retally = _retally
        return None

    def names(self, stmt: ast.SelectStmt) -> list[str]:
        """The output names of ``stmt``, a statement of this shape."""
        columns: list[str] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                columns.extend(self.scope.columns())
            else:
                columns.append(_item_name(item))
        return columns


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
        tables = [] if stmt.table is None else [
            self._db.table(name) for name in (stmt.table, *(j.table for j in stmt.joins))
        ]
        # The plan is kept per shape under the catalog versions of the tables
        # read; a source that has none is planned for each statement.
        versions = [getattr(table, "version", None) for table in tables]
        plan: _Select
        literals: Sequence[Any]
        if None in versions:
            plan, literals = _Select(tables, stmt, no_slot), ()
        else:
            plan, literals = shaped(
                stmt, reduce(Scope.joint, versions) if versions else SHAPE,
                "select", lambda shape, slot: _Select(tables, shape, slot),
            )
        if not tables:
            # Constant SELECT (e.g. SELECT 1 + 1): no row columns in scope.
            row = tuple(item(literals, context)(()) for item in plan.constants)
            return Result(columns=plan.names(stmt), rows=[row], plan="const")
        base = tables[0]
        path = settle_path(plan.sargs, literals)
        keep = plan.keep(literals, context)
        if plan.paged and path.row_ids is None:
            # Other literals replace what the plan keeps.
            memo = None if plan.kept is None else (plan.kept, tuple(literals))
            read = plan.reads[0]
            assert isinstance(base, Table)
            result = self._aggregate(
                plan, lambda partial: base.scan_partials(read, keep, partial, memo)
            )
            return self._finish(stmt, plan, result, path)
        rows = self._values(base, path, plan.reads[0], keep)
        for right, (read, probe, build_key, miss) in zip(tables[1:], plan.joins):
            rows = self._hash_join(rows, probe, right.scan_values(read), build_key, miss)
        above = plan.above(literals, context)
        if above is not None:
            joined_rows = list(rows)
            rows = [joined_rows[at] for at in above(joined_rows)]
        if plan.aggregated:
            result = self._aggregate(plan, lambda partial: (partial(rows),))
        else:
            assert plan.project is not None
            result = list(map(plan.project(literals, context), rows))
        return self._finish(stmt, plan, result, path)

    def _finish(
        self,
        stmt: ast.SelectStmt,
        plan: _Select,
        result: list[tuple[Any, ...]],
        path: AccessPath,
    ) -> Result:
        """A SELECT's rows ordered and limited, as its result."""
        columns = plan.names(stmt)
        if stmt.order_by:
            result = self._order(result, columns, stmt, plan)
        if stmt.limit is not None:
            result = result[: stmt.limit]
        return Result(
            columns=columns, rows=result,
            plan=f"{plan.table}:{path.description}{plan.joined}",
        )

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
        miss: tuple[tuple[Any, ...], ...],
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
            for values in build.get(probe(row), miss):
                yield row + values

    @staticmethod
    def _aggregate(
        plan: _Select, partials: Callable[[_Partial], Iterable[_Groups]]
    ) -> list[tuple[Any, ...]]:
        """The one aggregation: ``partials(partial)`` applies the plan's
        ``partial`` to the rows read — a page of them at a time, or all at
        once — and the partials are merged in the order they come.

        A partial maps each group key, in first-seen row order, to its entry:
        the group's row count, then per aggregate argument its non-NULL values
        in row order, or their fold (:func:`_entry`).  Merging holds each
        group's entries by reference, in the order they come — a page's
        partial may be kept, so none is ever changed — and at the end adds
        each group's counts and joins its lists once into the ones all the
        rows in read order make: SUM and AVG add the same numbers in the same
        order however the rows were cut, and the groups come in first-seen
        order.  Its folds are added up then, exactly.
        """
        if plan.refusal is not None:
            raise SqlAnalysisError(plan.refusal)
        made = partials(plan.partial)
        # Group key -> its entries, one per partial that has the group.
        merged: dict[tuple, list[_Entry]] = {}
        if plan.grouped:
            for part in made:
                for key, entry in part.items():
                    entries = merged.get(key)
                    if entries is None:
                        merged[key] = [entry]
                    else:
                        entries.append(entry)
        else:
            # The one group is in every partial, and a global aggregate of
            # no rows (no partial) still has it.
            merged[()] = [part[()] for part in made] or [plan.partial([])[()]]
        folds = plan.folds
        result = []
        for key, entries in merged.items():
            # Per place in an entry, the partials' counts, then per argument
            # slot their lists or folds.
            counts, *slots = zip(*entries)
            count = sum(counts)
            joined: list[list[Any] | _Fold] = [
                list(chain.from_iterable(parts)) if fold is None else _folded(parts)
                for parts, fold in zip(slots, folds)
            ]
            out: list[Any] = []
            for agg, reader, checked in plan.readers:
                if agg is None:
                    out.append(key[reader])  # type: ignore[index]
                    continue
                values: list[Any] | _Fold | None = None
                if isinstance(reader, int):
                    values = joined[reader - 1]
                elif reader is not None:
                    values = [v for _ in range(count) if (v := reader(())) is not None]
                out.append(_aggregate_value(agg, count, values, checked))
            result.append(tuple(out))
        return result

    def _order(
        self,
        rows: list[tuple[Any, ...]],
        columns: list[str],
        stmt: ast.SelectStmt,
        plan: _Select,
    ) -> list[tuple[Any, ...]]:
        self._db.clock.advance(self._db.costs.row_scan_cpu * len(rows))
        for order in reversed(stmt.order_by):
            position = _order_position(order.expr, columns, plan.slots, plan.scope)
            rows.sort(key=_sort_key(position), reverse=not order.ascending)
        return rows

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
