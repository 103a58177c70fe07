"""Read/write-set extraction from DML ASTs.

The analyzer never executes a captured statement; everything it knows
comes from the AST.  For each statement it derives a
:class:`StatementFootprint`:

* the **columns read** (WHERE references plus assignment inputs) and
  **columns written** (assigned columns; whole rows for INSERT/DELETE);
* a **row range** — a per-column interval/point constraint that is a
  provable *superset* of the rows the statement can touch.  For UPDATE and
  DELETE it comes from the top-level AND conjuncts of the WHERE clause
  (``col OP literal``, ``BETWEEN``, ``IN``, ``IS NULL``); for INSERT it is
  the point set of the inserted values.  Anything the extractor does not
  understand (ORs, column-to-column comparisons, function calls) simply
  leaves the column unconstrained, which keeps every later judgement
  conservative: two ranges are reported disjoint only when no row can
  possibly satisfy both.

Ranges are the workhorse of commutativity (:mod:`repro.analysis.safety`)
and of view-relevance pruning (:mod:`repro.analysis.relevance`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from ..core.opdelta import OpKind, classify_statement
from ..errors import AnalysisError
from ..sql import ast_nodes as ast
from ..sql.expressions import (
    referenced_columns,
    split_conjuncts,
    statement_columns,
)
from ..sql.templates import SHAPE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .safety import Determinism


def _lt(a: Any, b: Any) -> bool | None:
    """``a < b`` under SQL typing; ``None`` when the types are incomparable."""
    try:
        return bool(a < b)
    except TypeError:
        return None


@dataclass(frozen=True)
class Interval:
    """One contiguous value interval; ``None`` bounds are unbounded."""

    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    @classmethod
    def point(cls, value: Any) -> "Interval":
        return cls(low=value, high=value)

    @property
    def is_point(self) -> bool:
        return self.low is not None and self.low == self.high

    def contains(self, value: Any) -> bool:
        """Whether ``value`` *may* lie in the interval (conservative)."""
        if value is None:
            return False  # NULL never satisfies a comparison
        if self.low is not None:
            below = _lt(value, self.low)
            if below is None:
                return True  # incomparable types: cannot exclude
            if below or (value == self.low and not self.include_low):
                return False
        if self.high is not None:
            above = _lt(self.high, value)
            if above is None:
                return True
            if above or (value == self.high and not self.include_high):
                return False
        return True

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two intervals *may* share a value (conservative)."""
        for left, right in ((self, other), (other, self)):
            if left.high is None or right.low is None:
                continue
            apart = _lt(left.high, right.low)
            if apart is None:
                return True  # incomparable types: cannot prove disjoint
            if apart:
                return False
            if left.high == right.low and not (
                left.include_high and right.include_low
            ):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        lo = "[" if self.include_low else "("
        hi = "]" if self.include_high else ")"
        return f"{lo}{self.low!r}, {self.high!r}{hi}"


#: The unconstrained interval (matches anything non-NULL).
FULL = Interval()


@dataclass(frozen=True)
class ColumnConstraint:
    """What a predicate provably requires of one column.

    A union of intervals, or — for ``IS NULL`` — the NULL-only constraint.
    The empty union (no intervals, not null-only) is *unsatisfiable*: the
    conjuncts contradict each other and the statement matches no row.
    """

    intervals: tuple[Interval, ...] = (FULL,)
    null_only: bool = False

    @classmethod
    def points(cls, values: Sequence[Any]) -> "ColumnConstraint":
        non_null = tuple([Interval(v, v) for v in values if v is not None])
        if values and not non_null:  # nothing but NULLs
            return cls(intervals=(), null_only=True)
        return cls(intervals=non_null)

    @property
    def unsatisfiable(self) -> bool:
        return not self.intervals and not self.null_only

    def overlaps(self, other: "ColumnConstraint") -> bool:
        """Whether a single column value could satisfy both constraints."""
        if self.null_only or other.null_only:
            return self.null_only and other.null_only
        return any(
            a.overlaps(b) for a in self.intervals for b in other.intervals
        )

    def admits(self, value: Any) -> bool:
        """Whether a row whose column equals ``value`` may satisfy this."""
        if value is None:
            return self.null_only
        if self.null_only:
            return False
        return any(interval.contains(value) for interval in self.intervals)

    def intersect(self, other: "ColumnConstraint") -> "ColumnConstraint":
        """Conjunction of two constraints on the same column."""
        if self.null_only or other.null_only:
            if self.null_only and other.null_only:
                return ColumnConstraint(intervals=(), null_only=True)
            return ColumnConstraint(intervals=())  # NULL vs range: empty
        kept = tuple(
            _intersect_intervals(a, b)
            for a in self.intervals
            for b in other.intervals
            if a.overlaps(b)
        )
        return ColumnConstraint(intervals=kept)


def _intersect_intervals(a: Interval, b: Interval) -> Interval:
    low, include_low = a.low, a.include_low
    if b.low is not None and (low is None or _lt(low, b.low)):
        low, include_low = b.low, b.include_low
    elif b.low is not None and low == b.low:
        include_low = include_low and b.include_low
    high, include_high = a.high, a.include_high
    if b.high is not None and (high is None or _lt(b.high, high)):
        high, include_high = b.high, b.include_high
    elif b.high is not None and high == b.high:
        include_high = include_high and b.include_high
    return Interval(low, high, include_low, include_high)


@dataclass(frozen=True)
class PredicateRange:
    """Per-column constraints: a provable superset of the matched rows.

    Columns absent from ``columns`` are unconstrained.  Two ranges are
    *disjoint* when some column is constrained in both to non-overlapping
    values — then no single row can be matched by both predicates.
    """

    columns: Mapping[str, ColumnConstraint] = field(default_factory=dict)

    def get(self, column: str) -> ColumnConstraint | None:
        return self.columns.get(column)

    @property
    def unsatisfiable(self) -> bool:
        return any(c.unsatisfiable for c in self.columns.values())

    def disjoint_from(self, other: "PredicateRange") -> bool:
        if self.unsatisfiable or other.unsatisfiable:
            return True
        for column, constraint in self.columns.items():
            theirs = other.columns.get(column)
            if theirs is not None and not constraint.overlaps(theirs):
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{c}={v!r}" for c, v in sorted(self.columns.items()))
        return f"PredicateRange({inner})"


#: A range with no constraints at all (matches every row).
UNCONSTRAINED = PredicateRange({})


def range_from_predicate(where: ast.Expression | None) -> PredicateRange:
    """Extract per-column constraints from a WHERE clause (sound superset)."""
    constraints: dict[str, ColumnConstraint] = {}

    def narrow(column: str, constraint: ColumnConstraint) -> None:
        existing = constraints.get(column)
        constraints[column] = (
            constraint if existing is None else existing.intersect(constraint)
        )

    for conjunct in split_conjuncts(where):
        extracted = _constraint_from_conjunct(conjunct)
        if extracted is not None:
            narrow(*extracted)
    return PredicateRange(constraints)


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _constraint_from_conjunct(
    expr: ast.Expression,
) -> tuple[str, ColumnConstraint] | None:
    """``(column, constraint)`` for one recognised conjunct, else ``None``."""
    if isinstance(expr, ast.BinaryOp) and expr.op in _FLIP:
        sides = [(expr.left, expr.op, expr.right),
                 (expr.right, _FLIP[expr.op], expr.left)]
        for column_side, op, value_side in sides:
            if not isinstance(column_side, ast.ColumnRef):
                continue
            if not isinstance(value_side, ast.Literal):
                continue
            value = value_side.value
            if value is None:
                # ``col = NULL`` is never true: unsatisfiable.
                return column_side.name, ColumnConstraint(intervals=())
            if op == "=":
                return column_side.name, ColumnConstraint.points([value])
            if op == "<":
                interval = Interval(high=value, include_high=False)
            elif op == "<=":
                interval = Interval(high=value)
            elif op == ">":
                interval = Interval(low=value, include_low=False)
            else:  # >=
                interval = Interval(low=value)
            return column_side.name, ColumnConstraint(intervals=(interval,))
        return None
    if isinstance(expr, ast.InList) and not expr.negated:
        if not isinstance(expr.expr, ast.ColumnRef):
            return None
        values = []
        for item in expr.items:
            if not isinstance(item, ast.Literal):
                return None  # non-literal member: cannot bound
            values.append(item.value)
        return expr.expr.name, ColumnConstraint.points(
            [v for v in values if v is not None]
        )
    if isinstance(expr, ast.Between) and not expr.negated:
        if not isinstance(expr.expr, ast.ColumnRef):
            return None
        if not isinstance(expr.low, ast.Literal) or not isinstance(
            expr.high, ast.Literal
        ):
            return None
        if expr.low.value is None or expr.high.value is None:
            return expr.expr.name, ColumnConstraint(intervals=())
        interval = Interval(low=expr.low.value, high=expr.high.value)
        return expr.expr.name, ColumnConstraint(intervals=(interval,))
    if isinstance(expr, ast.IsNull) and not expr.negated:
        if isinstance(expr.expr, ast.ColumnRef):
            return expr.expr.name, ColumnConstraint(
                intervals=(), null_only=True
            )
    return None


def range_from_insert(
    stmt: ast.InsertStmt, column_order: Sequence[str] | None = None
) -> PredicateRange | None:
    """Point constraints of the inserted rows, when they are knowable.

    Returns ``None`` (unknown) for INSERT..SELECT, for inserts whose column
    list is absent and whose table layout was not supplied, and for rows
    containing non-literal expressions in a column.
    """
    if stmt.select is not None:
        return None
    names = stmt.columns if stmt.columns is not None else column_order
    if names is None:
        return None
    per_column: dict[str, list[Any]] = {name: [] for name in names}
    knowable: dict[str, bool] = {name: True for name in names}
    for row in stmt.rows:
        if len(row) != len(names):
            return None
        for name, expr in zip(names, row):
            if isinstance(expr, ast.Literal):
                per_column[name].append(expr.value)
            else:
                knowable[name] = False
    constraints = {
        name: ColumnConstraint.points(values)
        for name, values in per_column.items()
        if knowable[name]
    }
    return PredicateRange(constraints)


@dataclass(frozen=True)
class StatementFootprint:
    """What one DML statement reads and writes, statically."""

    table: str
    kind: OpKind
    #: Columns whose values the statement reads (predicate + assignment
    #: inputs).  ``reads_all_columns`` marks INSERT..SELECT style shapes.
    reads: frozenset[str]
    reads_all_columns: bool
    #: Columns the statement writes.  DELETE and INSERT write whole rows
    #: (``writes_all_columns``); for UPDATE these are the assigned columns.
    writes: frozenset[str]
    writes_all_columns: bool
    #: Columns referenced by the WHERE clause (membership determinants).
    where_columns: frozenset[str]
    #: Superset of affected rows (UPDATE/DELETE) or inserted points
    #: (INSERT); ``None`` when the inserted values are unknowable.
    row_range: PredicateRange | None
    #: The statement itself, for assignment-level analysis.
    statement: ast.Statement = field(repr=False, compare=False, hash=False)
    #: Whether the captured op carries a before image (hybrid capture).
    #: The warehouse replays such ops *from the image* on views that need
    #: before images — delete-by-key plus a full-row reinsert — so only
    #: commutativity proofs that establish **disjoint row sets** remain
    #: sound; pointwise-assignment arguments do not survive image replay
    #: (see :func:`repro.analysis.safety.commutes`).
    image_replay: bool = False
    #: For a captured DELETE: the views that replay it from its before image
    #: rather than its statement (see :func:`repro.analysis.safety.
    #: op_footprint`).  Two DELETEs swap freely only when these agree.
    image_views: frozenset[str] = frozenset()

    @property
    def assignments(self) -> tuple[ast.Assignment, ...]:
        return getattr(self.statement, "assignments", ())  # an UPDATE's

    @cached_property
    def determinism(self) -> "Determinism":
        """How much session state the statement depends on.

        Classified on first use and kept with the footprint: the pairwise
        provers ask it of the same footprint once per pair they judge.
        """
        from .safety import statement_determinism  # safety builds on this module

        return statement_determinism(self.statement)

    def writes_column(self, column: str) -> bool:
        return self.writes_all_columns or column in self.writes


def extract_footprint(
    statement: ast.Statement,
    table_columns: Mapping[str, Sequence[str]] | None = None,
) -> StatementFootprint:
    """Build the read/write footprint of one DML statement.

    ``table_columns`` optionally maps table name to its column order, which
    lets column-list-free ``INSERT INTO t VALUES (...)`` statements resolve
    their written columns and value points.

    Everything but the ``row_range`` is a fact of the statement's shape (and
    of the layout given for its table): for a parsed statement it is read off
    the shape's template, and only the range is computed from this
    statement's literals.
    """
    kind, table = classify_statement(statement)
    columns = None if table_columns is None else table_columns.get(table)
    layout = None if columns is None else tuple(columns)
    binding = statement.binding
    if binding is None:
        return _footprint(statement, kind, table, layout)
    template = binding.template

    def bound() -> StatementFootprint:
        shape = template.fact(
            SHAPE,
            ("footprint", layout),
            lambda: _footprint(template.statement, kind, table, layout),
        )
        return StatementFootprint(
            shape.table, shape.kind, shape.reads, shape.reads_all_columns,
            shape.writes, shape.writes_all_columns, shape.where_columns,
            row_range=_row_range(statement, layout), statement=statement,
        )

    return binding.fact(("footprint", layout), bound)


def _row_range(
    statement: ast.Statement, layout: Sequence[str] | None
) -> PredicateRange | None:
    """The part of a footprint that the statement's literals decide."""
    if isinstance(statement, ast.InsertStmt):
        return range_from_insert(statement, layout)
    return range_from_predicate(statement.where)  # type: ignore[attr-defined]


def _footprint(
    statement: ast.Statement,
    kind: OpKind,
    table: str,
    layout: Sequence[str] | None,
) -> StatementFootprint:
    if not ast.is_dml(statement):
        raise AnalysisError(
            f"cannot extract a footprint from {type(statement).__name__}"
        )
    where = getattr(statement, "where", None)  # an INSERT has none
    if isinstance(statement, ast.InsertStmt):
        names = statement.columns if statement.columns is not None else layout
        writes = frozenset(names or ())
    else:
        writes = frozenset(a.column for a in getattr(statement, "assignments", ()))
    return StatementFootprint(
        table=table,
        kind=kind,
        reads=frozenset(statement_columns(statement)),
        reads_all_columns=getattr(statement, "select", None) is not None,
        writes=writes,
        writes_all_columns=not isinstance(statement, ast.UpdateStmt),
        where_columns=frozenset(() if where is None else referenced_columns(where)),
        row_range=_row_range(statement, layout),
        statement=statement,
    )
