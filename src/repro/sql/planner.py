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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple, Sequence

from ..errors import SqlAnalysisError
from . import ast_nodes as ast
from .expressions import Slot, check_comparable, no_slot, split_conjuncts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.index import Index
    from ..engine.rows import RowId
    from .source import RowSource

#: Ranges matching more than this fraction of the table fall back to a scan.
INDEX_SELECTIVITY_THRESHOLD = 0.05

_RANGE_OPS = {"<": ("high", False), "<=": ("high", True),
              ">": ("low", False), ">=": ("low", True)}


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


def settle_path(found: Sequence[Probe], values: Sequence[Any]) -> AccessPath:
    """The first probe worth taking, for a statement with these literals."""
    for index, op, value, slot in found:
        if slot is not None:
            value = values[slot]
        if op == "=":
            return AccessPath(f"index({index.name})", index.lookup(value))
        bound, inclusive = _RANGE_OPS[op]
        # One-sided: the open side is None, and its flag is not read.
        span = (
            (value, None, inclusive, True)
            if bound == "low"
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
