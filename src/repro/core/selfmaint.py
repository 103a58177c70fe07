"""Self-maintainability of SPJ views with respect to Op-Delta (paper §4.1).

The paper (building on its reference [8]) identifies sufficient conditions
under which the Op-Delta *alone* refreshes a warehouse view, and cases where
a hybrid — the operation plus the **before image** of the affected rows —
is needed.  The after image is never needed: the operation derives it.

The rules implemented here, for select-project(-join) views:

* **INSERT** — always maintainable from the operation alone: the statement
  carries the new rows; apply the view's selection and projection to them.
* **DELETE** — maintainable from the operation alone when the view keeps
  the base table's key *and* the delete predicate only references
  projected columns (then the predicate can be rewritten onto the view).
  Otherwise the before image identifies the disappearing rows.
* **UPDATE** — maintainable from the operation alone when the predicate
  and every assigned column are projected by the view *and* no assigned
  column participates in the view's selection predicate (no row can enter
  or leave the view).  Otherwise the before image is required: leaving
  rows are found by key; entering rows' full after-images are derived as
  ``apply(assignments, before_image)``.
* **Join views** — maintainable only when the warehouse holds the joined
  (dimension) table locally; otherwise integration would have to query
  back to the sources, which violates requirement 1 of §2.3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from ..errors import SelfMaintenanceError
from ..sql import ast_nodes as ast
from ..sql.expressions import referenced_columns, statement_columns
from ..sql.parser import parse_expression
from .opdelta import OpDelta, OpKind


class Maintainability(enum.Enum):
    """How much captured information a view needs for one operation kind."""

    OP_ONLY = "op-only"
    NEEDS_BEFORE_IMAGE = "needs-before-image"
    NOT_SELF_MAINTAINABLE = "not-self-maintainable"


@dataclass(frozen=True)
class JoinSpec:
    """An equi-join against a (dimension) table."""

    table: str
    left_column: str   # column of the view's base table
    right_column: str  # column of the joined table
    #: Columns of the joined table the view projects.
    columns: tuple[str, ...] = ()
    #: Whether the warehouse holds a local copy of the joined table.
    available_at_warehouse: bool = True


@dataclass(frozen=True)
class ViewDefinition:
    """A select-project(-join) view over one base table.

    ``predicate`` is SQL text over the base table's columns (or ``None``
    for select-all); ``columns`` are the projected base-table columns.
    """

    name: str
    base_table: str
    columns: tuple[str, ...]
    predicate: str | None = None
    key_column: str | None = None
    join: JoinSpec | None = None
    #: All columns of the base table, when known.  Static capture-time
    #: analysis uses this to decide whether the view is a full-width
    #: mirror; ``None`` means unknown (assume narrower than the base).
    base_columns: tuple[str, ...] | None = None

    @cached_property
    def _predicate(self) -> tuple[ast.Expression | None, frozenset[str]]:
        """The predicate text parsed, and the columns it references: once per
        definition (the instance is frozen, so neither can change)."""
        if not self.predicate:
            return None, frozenset()
        tree = parse_expression(self.predicate)
        return tree, frozenset(referenced_columns(tree))

    def predicate_ast(self) -> ast.Expression | None:
        return self._predicate[0]

    def predicate_columns(self) -> frozenset[str]:
        return self._predicate[1]

    @property
    def key_projected(self) -> bool:
        return self.key_column is not None and self.key_column in self.columns

    def __post_init__(self) -> None:
        if not self.columns:
            raise SelfMaintenanceError(f"view {self.name!r} projects no columns")
        # Parsed now, so that a malformed predicate fails where the view is
        # defined rather than where it is first applied.  (A predicate over
        # non-projected columns is legal: it is evaluated against base rows.)
        self.predicate_ast()


def classify_operation(view: ViewDefinition, op: OpDelta) -> Maintainability:
    """Per-statement analysis: what does *this* operation need for *this* view?"""
    if (
        view.join is not None
        and view.join.columns
        and not view.join.available_at_warehouse
    ):
        # Only joins that actually project dimension attributes force a
        # source query; a bare key-consistency join with no projected
        # columns never needs the dimension table at integration time.
        return Maintainability.NOT_SELF_MAINTAINABLE
    if op.kind is OpKind.INSERT:
        return Maintainability.OP_ONLY
    # The rewrite-onto-the-view path evaluates everything the statement reads
    # (its WHERE, its assignment inputs) and the view's own selection
    # predicate against view rows, so all of it must be projected.
    projected = set(view.columns)
    visible = (
        statement_columns(op.statement) <= projected
        and view.predicate_columns() <= projected
    )
    if op.kind is OpKind.DELETE:
        if view.key_projected and visible:
            return Maintainability.OP_ONLY
        return Maintainability.NEEDS_BEFORE_IMAGE
    # UPDATE
    assert op.kind is OpKind.UPDATE
    assigned = {a.column for a in op.statement.assignments}  # type: ignore[union-attr]
    membership_affected = bool(assigned & view.predicate_columns())
    if (
        view.join is not None
        and view.join.columns
        and view.join.left_column in assigned
    ):
        # Reassigning the join key invalidates the materialised dimension
        # attributes; re-projection (which needs the before image) is
        # required.  A join projecting no dimension columns materialises
        # nothing that could go stale.
        membership_affected = True
    if visible and assigned <= projected and not membership_affected:
        return Maintainability.OP_ONLY
    return Maintainability.NEEDS_BEFORE_IMAGE


def classify_static(view: ViewDefinition, kind: OpKind) -> Maintainability:
    """Capture-time analysis: the statement is unknown, so be conservative.

    This is what the hybrid capture policy evaluates when deciding whether
    to fetch before images for a table's updates/deletes.
    """
    if (
        view.join is not None
        and view.join.columns
        and not view.join.available_at_warehouse
    ):
        return Maintainability.NOT_SELF_MAINTAINABLE
    if kind is OpKind.INSERT:
        return Maintainability.OP_ONLY
    if kind is OpKind.DELETE:
        # Any base column could appear in a future DELETE's WHERE; the view
        # is safe for every possible statement only if it keeps the key and
        # projects the full base row.
        if view.key_projected and _projects_full_row(view):
            return Maintainability.OP_ONLY
        return Maintainability.NEEDS_BEFORE_IMAGE
    # UPDATE: additionally, a future statement could assign one of the
    # view's selection-predicate columns (moving rows in or out of the
    # view) or the join key (invalidating materialised dimension columns).
    if (
        view.predicate is None
        and view.join is None
        and view.key_projected
        and _projects_full_row(view)
    ):
        return Maintainability.OP_ONLY
    return Maintainability.NEEDS_BEFORE_IMAGE


def _projects_full_row(view: ViewDefinition) -> bool:
    """Whether the view provably projects every base-table column."""
    if view.base_columns is None:
        return False
    return set(view.columns) >= set(view.base_columns)
