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

One function states these rules, ``_replay(view, kind, read, assigned)``,
and it has two callers.  :func:`replay_kind` asks it once per statement
shape and view; its answer is the path apply takes, the columnar gate and
the conflict graph's ``image_views``.  The planner
(:mod:`repro.semantics.planner`) asks it once per kind, with every base
column read and assigned.  The ``OP_ONLY`` conditions only tighten as those
sets grow, so that widening is what capture uses: a kind it answers
``OP_ONLY`` is ``OP_ONLY`` for every statement, and an image it asks for is
one some statement of the kind may need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from ..errors import SelfMaintenanceError
from ..scope import Scope
from ..sql import ast_nodes as ast
from ..sql.expressions import referenced_columns, statement_columns
from ..sql.parser import parse_expression
from ..sql.templates import shaped
from .opdelta import OpKind, classify_statement


class Maintainability(enum.Enum):
    """How much captured information a view needs to replay an operation."""

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
    #: All columns of the base table, when known: every column a statement
    #: may read, to the planner's per-kind widening.  ``None`` means the
    #: planner takes them from its schema catalog.
    base_columns: tuple[str, ...] | None = None

    @cached_property
    def _predicate(self) -> tuple[ast.Expression | None, frozenset[str]]:
        """The predicate text parsed, and the columns it references: once per
        definition (the instance is frozen, so neither can change)."""
        if not self.predicate:
            return None, frozenset()
        tree = parse_expression(self.predicate)
        return tree, frozenset(referenced_columns(tree))

    @cached_property
    def _scope(self) -> Scope:
        """What this definition's per-shape facts are filed under: they
        read it, and it never changes."""
        return Scope()

    @cached_property
    def select(self) -> ast.SelectStmt:
        """The SELECT this view stands for, built once: the projected columns,
        then the key column and the join's left column where the view keeps
        them without projecting them, then the dimension's projected columns,
        ``FROM base LEFT JOIN dim ON base.left = dim.right WHERE predicate``:
        a base row no dimension row matches stays, its dimension items NULL.
        A join projecting no dimension column reads nothing from the
        dimension, so it has no JOIN clause; its left column stays an item.
        Every base column reference is qualified by the base table, the
        predicate's too, so a column both tables have is the base table's."""
        base, join = self.base_table, self.join
        names = list(self.columns)
        if self.key_column is not None and self.key_column not in names:
            names.append(self.key_column)
        if join is not None and join.left_column not in names:
            names.append(join.left_column)
        items = [ast.ColumnRef(name, base) for name in names]
        joins: tuple[ast.Join, ...] = ()
        if join is not None and join.columns:
            items.extend(ast.ColumnRef(name, join.table) for name in join.columns)
            joins = (
                ast.Join(
                    join.table,
                    None,
                    ast.ColumnRef(join.left_column, base),
                    ast.ColumnRef(join.right_column, join.table),
                    outer=True,
                ),
            )
        predicate = self.predicate_ast()
        return ast.SelectStmt(
            tuple(ast.SelectItem(item) for item in items),
            base,
            joins=joins,
            where=None if predicate is None else ast.qualified(predicate, base),
        )

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


def replay_kind(view: ViewDefinition, statement: ast.Statement) -> Maintainability:
    """How ``view`` replays ``statement``: the one judge of the apply path.

    The answer reads the statement's class and the columns it reads and
    assigns, never a literal, so it is the shape's: worked out once per
    (shape, view), under the definition's own scope.
    """
    return shaped(
        statement, view._scope, "replay",
        lambda shape, _slot: _replay(view, *_columns_of(shape)),
    )[0]


def _columns_of(
    statement: ast.Statement,
) -> tuple[OpKind, frozenset[str], frozenset[str]]:
    """A statement's kind, the columns it reads and the columns it assigns."""
    kind, _table = classify_statement(statement)
    assigned = (
        frozenset(a.column for a in statement.assignments)
        if isinstance(statement, ast.UpdateStmt)
        else frozenset()
    )
    return kind, frozenset(statement_columns(statement)), assigned


def _replay(
    view: ViewDefinition,
    kind: OpKind,
    read_columns: frozenset[str],
    assigned_columns: frozenset[str],
) -> Maintainability:
    """What a ``kind`` statement reading ``read_columns`` and assigning
    ``assigned_columns`` needs for ``view``.

    Every ``OP_ONLY`` condition only gets harder to meet as either column
    set grows, so asking with every base column read (and, for UPDATE,
    assigned) answers for every statement of the kind at once — the
    planner's per-kind rule.
    """
    if (
        view.join is not None
        and view.join.columns
        and not view.join.available_at_warehouse
    ):
        # Only joins that actually project dimension attributes force a
        # source query; a bare key-consistency join with no projected
        # columns never needs the dimension table at integration time.
        return Maintainability.NOT_SELF_MAINTAINABLE
    if kind is OpKind.INSERT:
        return Maintainability.OP_ONLY
    # The rewrite-onto-the-view path evaluates everything the statement reads
    # (its WHERE, its assignment inputs) and the view's own selection
    # predicate against view rows, so all of it must be projected.
    projected = set(view.columns)
    visible = (
        read_columns <= projected and view.predicate_columns() <= projected
    )
    if kind is OpKind.DELETE:
        if view.key_projected and visible:
            return Maintainability.OP_ONLY
        return Maintainability.NEEDS_BEFORE_IMAGE
    membership_affected = bool(assigned_columns & view.predicate_columns())
    if (
        view.join is not None
        and view.join.columns
        and view.join.left_column in assigned_columns
    ):
        # Reassigning the join key invalidates the materialised dimension
        # attributes; re-projection (which needs the before image) is
        # required.  A join projecting no dimension columns materialises
        # nothing that could go stale.
        membership_affected = True
    if visible and assigned_columns <= projected and not membership_affected:
        return Maintainability.OP_ONLY
    return Maintainability.NEEDS_BEFORE_IMAGE
