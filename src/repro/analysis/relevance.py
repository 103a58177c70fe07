"""View-relevance pruning: drop Op-Deltas no warehouse view can observe.

The paper ships every captured statement to the warehouse; in practice
many statements touch tables or columns no materialised view projects.
Matching a statement's *write set* and *row range* against the view
definitions at capture time lets the integrator skip those deltas instead
of applying them.

The judgement is conservative in the usual direction: a statement is
pruned only when it provably cannot change any view's content (nor a
mirrored base table).  Anything the extractor cannot bound stays relevant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..core.opdelta import OpKind
from ..core.selfmaint import ViewDefinition
from ..sql import ast_nodes as ast
from ..sql.expressions import referenced_columns
from .rwsets import (
    PredicateRange,
    StatementFootprint,
    range_from_predicate,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..warehouse.aggregates import AggregateViewDefinition


@dataclass(frozen=True)
class RelevanceVerdict:
    """Which warehouse consumers can observe one statement's effects."""

    #: Names of views whose content the statement may change.
    relevant_views: tuple[str, ...]
    #: Whether the statement's table is mirrored wholesale at the warehouse.
    mirror_relevant: bool

    @property
    def pruned(self) -> bool:
        """True when nothing at the warehouse can observe this statement."""
        return not self.relevant_views and not self.mirror_relevant


#: What a statement's *shape* decides about its relevance: whether its table
#: is mirrored, and — in verdict order — the views that survive the table and
#: column tests (which read no literal), each with the selection range its
#: row test will be run against (``None``: no row test can clear it).
ShapeRelevance = tuple[bool, tuple[tuple[str, PredicateRange | None], ...]]


def shape_relevance(
    footprint: StatementFootprint,
    views: Sequence[ViewDefinition],
    mirrored_tables: Iterable[str] = (),
    aggregate_views: Sequence["AggregateViewDefinition"] = (),
) -> ShapeRelevance:
    """The literal-free half of a relevance verdict (:func:`settle_relevance`
    is the other), matched against the warehouse view catalog."""
    candidates = [
        (view.name, view_range)
        for view in views
        for view_range in _candidate_view(view, footprint)
    ] + [
        (view.name, view_range)
        for view in aggregate_views
        if footprint.table == view.base_table
        for view_range in _candidate_base(
            view, _aggregate_interest_columns, footprint
        )
    ]
    return footprint.table in set(mirrored_tables), tuple(candidates)


def settle_relevance(
    shape: ShapeRelevance, footprint: StatementFootprint
) -> RelevanceVerdict:
    """The verdict for one statement of the shape: the row tests."""
    mirror_relevant, candidates = shape
    return RelevanceVerdict(
        relevant_views=tuple(
            name
            for name, view_range in candidates
            if view_range is None or _reaches(view_range, footprint)
        ),
        mirror_relevant=mirror_relevant,
    )


def _view_interest_columns(view: ViewDefinition) -> set[str]:
    """Base-table columns whose values the view's content depends on."""
    interest = set(view.columns) | view.predicate_columns()
    if view.key_column is not None:
        interest.add(view.key_column)
    if view.join is not None:
        interest.add(view.join.left_column)
    return interest


def _candidate_view(
    view: ViewDefinition, footprint: StatementFootprint
) -> list[PredicateRange | None]:
    if footprint.table == view.base_table:
        return _candidate_base(view, _view_interest_columns, footprint)
    if view.join is not None and footprint.table == view.join.table:
        # Changing the dimension table can rewrite the view's joined
        # columns; bounding that would need join-key tracking, so stay
        # conservative.
        return [None]
    return []


def _aggregate_interest_columns(view: "AggregateViewDefinition") -> set[str]:
    """Base-table columns an aggregate view's group rows depend on: a
    grouping value, an aggregated input, or the selection predicate."""
    interest = set(view.group_by)
    for spec in view.aggregates:
        if spec.argument is not None:
            interest.add(spec.argument)
    predicate = view.predicate_ast()
    if predicate is not None:
        interest |= referenced_columns(predicate)
    return interest


def _candidate_base(
    view: "ViewDefinition | AggregateViewDefinition",
    interest_columns: Callable[[Any], set[str]],
    footprint: StatementFootprint,
) -> list[PredicateRange | None]:
    """The view's selection range, if a statement of this shape on its base
    table could change its content; nothing when the shape rules it out.

    The one judgement for both view kinds; ``interest_columns(view)`` — the
    base-table columns the content depends on — is all they differ in, and
    only an UPDATE asks for it: one that assigns only columns the view does
    not depend on cannot change the view's content.
    """
    if footprint.kind is OpKind.UPDATE and not (
        footprint.writes & interest_columns(view)
    ):
        return []
    return [range_from_predicate(view.predicate_ast())]


def _reaches(view_range: PredicateRange, footprint: StatementFootprint) -> bool:
    """The row test: can the rows this statement touches lie in the range?"""
    row_range = footprint.row_range
    if row_range is None or not row_range.disjoint_from(view_range):
        return True
    # The touched rows provably lie outside the view's selection range:
    # inserted rows never enter the view, deleted rows never were in it, and
    # an UPDATE matters only if an assignment can move one inside.
    return footprint.kind is OpKind.UPDATE and not _cannot_enter_range(
        view_range, footprint
    )


def _cannot_enter_range(
    target: PredicateRange, footprint: StatementFootprint
) -> bool:
    """Whether the UPDATE's assignments provably cannot move a row into
    ``target`` (same literal-escape rule as safety's ``_cannot_move_into``,
    but against a bare range rather than another statement)."""
    for assignment in footprint.assignments:
        constraint = target.get(assignment.column)
        if constraint is None:
            continue
        if not isinstance(assignment.expr, ast.Literal):
            return False
        if constraint.admits(assignment.expr.value):
            return False
    return True
