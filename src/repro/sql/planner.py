"""The access-path chooser: how one statement reads one table.

:func:`choose_path` implements exactly the access-path behaviour the paper
leans on in §3.1.1: an equality predicate on an indexed column uses the
index; a range predicate uses a B-tree index only when the optimizer's
statistics say the range is selective (default threshold 5% of the table),
otherwise it falls back to a full table scan — "indices may not be used by
the query optimizer if the deltas form a significant portion of the table".

It is the one chooser.  The executor asks it for SELECT/UPDATE/DELETE, and
the columnar applier asks it for the rows a component's statement reaches
(:mod:`repro.columnar.apply`).  Either way the path is a *candidate filter*:
the caller still runs the whole predicate over the rows it names, so what a
predicate means — three-valued logic, typed diagnostics — stays with the
evaluator.  A literal the evaluator would not compare with the column
(NULL, or a string against a number) therefore never reaches an index.

The same rule bounds an UPDATE's or DELETE's table scan (:func:`bounds`):
when *every* conjunct of its WHERE is such a ``column OP literal``, the
filter cannot raise on a stored row, and a row it keeps has each column's
value inside the interval the conjuncts on that column leave
(:func:`settle_bounds`).  The scan then skips evaluating a page that holds no
such value (:meth:`repro.engine.table.Table.scan`); it still fetches and
charges it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple, Sequence, cast

from ..errors import SqlAnalysisError
from . import ast_nodes as ast
from .expressions import Slot, check_comparable, no_slot, split_conjuncts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.index import Index
    from ..engine.rows import RowId
    from ..engine.table import PageBound
    from .source import RowSource

#: Ranges matching more than this fraction of the table fall back to a scan.
INDEX_SELECTIVITY_THRESHOLD = 0.05

#: Per range operator, the side of an interval ``[low, low_inclusive, high,
#: high_inclusive]`` it bounds (0: low, 2: high) and whether inclusively.
_RANGE_OPS = {"<": (2, False), "<=": (2, True), ">": (0, False), ">=": (0, True)}


@dataclass
class AccessPath:
    """How the chooser decided to read a table."""

    description: str
    row_ids: Iterable["RowId"] | None  # None means full scan


class Probe(NamedTuple):
    """A sargable conjunct on an indexed column: ``column OP literal``.

    Which conjuncts are probes is a fact of the statement's shape and the
    table's index list; the literal is the statement's own — ``slot`` says
    which one, ``value`` is it when the statement has no template.
    """

    index: "Index"
    op: str
    value: Any
    slot: int | None


class Bound(NamedTuple):
    """A conjunct ``column OP literal`` of a WHERE that bounds a scan:
    ``at`` is the column's position in the rows the scan decodes, ``slot``
    and ``value`` name the literal as a :class:`Probe`'s do."""

    at: int
    op: str
    value: Any
    slot: int | None


def choose_path(
    table: "RowSource", alias: str, where: ast.Expression | None
) -> AccessPath:
    """Pick index lookup, index range scan, or full scan."""
    return settle_path(probes(table, alias, where), ())


def probes(
    table: "RowSource", alias: str, where: ast.Expression | None,
    slot: Slot = no_slot,
) -> list[Probe]:
    """The conjuncts of ``where`` an index of ``table`` could answer, in the
    order written."""
    found = []
    for conjunct in split_conjuncts(where):
        simple = _column_vs_literal(conjunct, table, alias)
        if simple is None:
            continue
        column, op, value = simple
        index = table.index_on(column)
        if index is not None and (op == "=" or index.supports_range):
            found.append(Probe(index, op, value, slot(value)))
    return found


def bounds(
    table: "RowSource", where: ast.Expression | None, columns: Sequence[int],
    slot: Slot,
) -> list[Bound]:
    """The conjuncts of ``where``, each a :class:`Bound` over rows of the
    ``columns`` (ascending positions, each column ``where`` reads among
    them) — or none at all, unless every conjunct is one."""
    found = []
    for conjunct in split_conjuncts(where):
        simple = _column_vs_literal(conjunct, table, table.name)
        if simple is None:
            return []
        column, op, value = simple
        at = columns.index(table.schema.column_index(column))
        found.append(Bound(at, op, value, slot(value)))
    return found


def settle_bounds(
    found: Sequence[Bound], values: Sequence[Any]
) -> list["PageBound"]:
    """Per column of ``found``, the interval its conjuncts leave for a
    statement with these literals, as a scan takes it
    (:data:`repro.engine.table.PageBound`).

    Each side is the tightest of its conjuncts' (equality is both sides).
    A NaN literal, which no value satisfies, takes its side for good and
    exclusively: no value is inside an interval with a NaN end.
    """
    spans: dict[int, list[Any]] = {}
    for at, op, value, slot in found:
        if slot is not None:
            value = values[slot]
        span = spans.setdefault(at, [None, True, None, True])
        sides = ((0, True), (2, True)) if op == "=" else (_RANGE_OPS[op],)
        for side, inclusive in sides:
            current = span[side]
            if current is None or value != value or (
                value > current if side == 0 else value < current
            ):
                span[side : side + 2] = value, inclusive and value == value
            elif value == current:
                span[side + 1] = span[side + 1] and inclusive
    return [cast("PageBound", (at, *span)) for at, span in spans.items()]


def settle_path(found: Sequence[Probe], values: Sequence[Any]) -> AccessPath:
    """The first probe worth taking, for a statement with these literals."""
    for index, op, value, slot in found:
        if slot is not None:
            value = values[slot]
        if op == "=":
            return AccessPath(f"index({index.name})", index.lookup(value))
        side, inclusive = _RANGE_OPS[op]
        # One-sided: the open side is None, and its flag is not read.
        span = (
            (value, None, inclusive, True)
            if side == 0
            else (None, value, True, inclusive)
        )
        total = max(1, index.num_entries)  # one entry per row of the table
        if index.estimate_range(*span) / total <= INDEX_SELECTIVITY_THRESHOLD:
            return AccessPath(f"index-range({index.name})", index.range_scan(*span))
    return AccessPath("scan", None)


def _column_vs_literal(
    expr: ast.Expression, table: "RowSource", alias: str
) -> tuple[str, str, Any] | None:
    """Match ``column OP literal`` (either operand order) on this table.

    Only a literal an index can be probed with matches: not NULL (the
    comparison is UNKNOWN for every row) and comparable with the column's
    values by the evaluator's own rule.
    """
    if not isinstance(expr, ast.BinaryOp):
        return None
    if expr.op not in ("=", "<", "<=", ">", ">="):
        return None
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    candidates = [
        (expr.left, expr.op, expr.right),
        (expr.right, flip[expr.op], expr.left),
    ]
    for column_side, op, value_side in candidates:
        if not isinstance(column_side, ast.ColumnRef):
            continue
        if column_side.table not in (None, alias, table.name):
            continue
        if not isinstance(value_side, ast.Literal) or value_side.value is None:
            continue
        if not table.schema.has_column(column_side.name):
            continue
        stored = table.schema.column(column_side.name).datatype
        try:
            check_comparable("" if stored.is_text else 0, value_side.value, op)
        except SqlAnalysisError:
            continue
        return column_side.name, op, value_side.value
    return None
