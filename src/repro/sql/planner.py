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

A WHERE is read once per shape, into its :class:`Sarg` list
(:func:`sargs`): each conjunct ``column OP literal`` of that kind, with the
index that could answer it, and whether the list is the whole WHERE.  Two
settles read the list with a statement's literals.  :func:`settle_path`
takes the first indexed sarg worth taking.  :func:`settle_bounds` bounds an
UPDATE's or DELETE's table scan when the list is the whole WHERE: the
filter then cannot raise on a stored row, and a row it keeps has each
column's value inside the interval the sargs on that column leave.  The
scan skips evaluating a page that holds no such value
(:meth:`repro.engine.table.Table.scan`); it still fetches and charges it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple, Sequence, cast

from ..errors import SqlAnalysisError
from . import ast_nodes as ast
from .expressions import (
    Slot, check_comparable, column_vs_literal, no_slot, split_conjuncts,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.index import Index
    from ..engine.rows import RowId
    from ..engine.table import PageBound
    from .source import RowSource

#: Ranges matching more than this fraction of the table fall back to a scan.
INDEX_SELECTIVITY_THRESHOLD = 0.05

#: Per range operator, the side of an interval ``(low, high, include_low,
#: include_high)`` it bounds (0: low, 1: high; its flag is two further on)
#: and whether inclusively.
_RANGE_OPS = {"<": (1, False), "<=": (1, True), ">": (0, False), ">=": (0, True)}


@dataclass
class AccessPath:
    """How the chooser decided to read a table."""

    description: str
    row_ids: Iterable["RowId"] | None  # None means full scan


class Sarg(NamedTuple):
    """A conjunct ``column OP literal`` of a WHERE whose literal the
    evaluator compares with the column's values: ``at`` is the column's
    position in the table, ``index`` the index that can answer ``op`` on it
    (``None``: none can).

    Which conjuncts are sargs is a fact of the statement's shape and the
    table's index list; the literal is the statement's own — ``slot`` says
    which one, ``value`` is it when the statement has no template.
    """

    at: int
    index: "Index | None"
    op: str
    value: Any
    slot: int | None


def choose_path(
    table: "RowSource", alias: str, where: ast.Expression | None
) -> AccessPath:
    """Pick index lookup, index range scan, or full scan."""
    return settle_path(sargs(table, alias, where, no_slot)[0], ())


def sargs(
    table: "RowSource", alias: str, where: ast.Expression | None, slot: Slot
) -> tuple[list[Sarg], bool]:
    """The sargs of ``where`` on ``table``, in the order written, and
    whether every conjunct is one."""
    conjuncts = split_conjuncts(where)
    found = []
    for conjunct in conjuncts:
        compared = column_vs_literal(conjunct)
        if compared is None or not _sargable(table, alias, *compared):
            continue
        column, op, value = compared
        index = table.index_on(column.name)
        if index is not None and op != "=" and not index.supports_range:
            index = None
        at = table.schema.column_index(column.name)
        found.append(Sarg(at, index, op, value, slot(value)))
    return found, len(found) == len(conjuncts)


def settle_bounds(
    found: Sequence[Sarg], values: Sequence[Any]
) -> list["PageBound"]:
    """Per column of ``found``, the interval its sargs leave for a statement
    with these literals, as a scan takes it
    (:data:`repro.engine.table.PageBound`).

    Each side is the tightest of its sargs' (equality is both sides).  A NaN
    literal, which no value satisfies, takes its side for good and
    exclusively: no value is inside an interval with a NaN end.
    """
    intervals: dict[int, list[Any]] = {}
    for at, _index, op, value, slot in found:
        if slot is not None:
            value = values[slot]
        interval = intervals.setdefault(at, [None, None, True, True])
        sides = ((0, True), (1, True)) if op == "=" else (_RANGE_OPS[op],)
        for side, inclusive in sides:
            current = interval[side]
            if current is None or value != value or (
                value > current if side == 0 else value < current
            ):
                interval[side] = value
                interval[side + 2] = inclusive and value == value
            elif value == current:
                interval[side + 2] = interval[side + 2] and inclusive
    return [cast("PageBound", (at, *interval)) for at, interval in intervals.items()]


def settle_path(found: Sequence[Sarg], values: Sequence[Any]) -> AccessPath:
    """The first indexed sarg worth taking, for a statement with these
    literals."""
    for _at, index, op, value, slot in found:
        if index is None:
            continue
        if slot is not None:
            value = values[slot]
        if op == "=":
            return AccessPath(f"index({index.name})", index.lookup(value))
        side, inclusive = _RANGE_OPS[op]
        # One-sided: the open side is None, and its flag is not read.
        interval = (
            (value, None, inclusive, True)
            if side == 0
            else (None, value, True, inclusive)
        )
        total = max(1, index.num_entries)  # one entry per row of the table
        if index.estimate_range(*interval) / total <= INDEX_SELECTIVITY_THRESHOLD:
            return AccessPath(f"index-range({index.name})", index.range_scan(*interval))
    return AccessPath("scan", None)


def _sargable(
    table: "RowSource", alias: str, column: ast.ColumnRef, op: str, value: Any
) -> bool:
    """Whether an index of ``table`` could be probed for ``column OP value``:
    the column is the table's, and the value is one the evaluator compares
    with the column's values (not NULL, which is UNKNOWN for every row;
    not a string against a number), by the evaluator's own rule."""
    if column.table not in (None, alias, table.name) or value is None:
        return False
    if not table.schema.has_column(column.name):
        return False
    stored = table.schema.column(column.name).datatype
    try:
        check_comparable("" if stored.is_text else 0, value, op)
    except SqlAnalysisError:
        return False
    return True
