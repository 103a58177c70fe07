"""Safety classification of captured Op-Delta statements.

Three orthogonal judgements, all static (no execution):

**Determinism** — :class:`Determinism` is a three-level lattice.
``DETERMINISTIC`` statements reference no session state and replay
identically anywhere.  ``TIME_DEPENDENT`` statements call only time
functions (``NOW()``/``CURRENT_TIMESTAMP``): they are *pinnable* — the
capture timestamp can be substituted into the text and the result replays
deterministically.  ``VOLATILE`` statements reference unrecoverable state
(``RANDOM()``, session identity) and cannot be replayed faithfully from
the statement alone; the integrator must fall back to value deltas.

**Idempotence** — whether applying the statement twice leaves the same
state as applying it once.  Governs retry safety in the transport layer.

**Commutativity** — whether two statements can be applied in either order
with the same final state.  This is the foundation of the transaction
conflict graph: transactions whose statements pairwise commute can be
applied concurrently at the warehouse.

All judgements are *conservative*: ``commutes`` answers ``True`` only when
reordering is provably safe, and falls back to ``False`` whenever the
statement shapes defeat the range extractor.

``commutes`` accepts a ``structural`` flag (default on) enabling the
*structural-disjointness* widening: two predicate-bounded write sets are
provably disjoint when one WHERE clause carries a top-level conjunct that
is the exact structural negation of a conjunct in the other (proved via
:func:`conjuncts_imply`), e.g. ``status IS NULL`` vs ``status IS NOT
NULL``.  The proof is sound only while the partitioning columns are
invariant, so the widening additionally requires that neither statement
assigns any column referenced by the contradicting conjunct pair.
Passing ``structural=False`` recovers the original, more conservative
prover.  The setting belongs to a window's commutation record
(:class:`~repro.analysis.conflict.CommutationRecord`, the one caller of
``commutes``): the schedule certifier reads the verdicts the graph's record
proved under it, and the certify bench experiment builds the graph both
ways to report the parallelism delta.  Every other record — the
sanitizer's, the coalescer's, ``verify_compaction``'s — proves with it on.

Ops captured with **before images** (hybrid capture) are replayed from
the image on views that need them, which is *not* plain statement
replay: build their footprints with :func:`op_footprint` so ``commutes``
knows to restrict itself to disjoint-row-set proofs.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Mapping, Sequence

from ..core.opdelta import OpDelta, OpKind
from ..core.selfmaint import Maintainability, ViewDefinition, classify_operation
from ..sql import ast_nodes as ast
from ..sql.expressions import (
    referenced_columns,
    referenced_functions,
    split_conjuncts,
)
from ..sql.templates import SHAPE, shaped
from .rwsets import StatementFootprint, extract_footprint


class Determinism(enum.Enum):
    """How much session state a statement's expressions depend on."""

    DETERMINISTIC = "deterministic"
    #: Depends only on the clock — replayable by pinning the capture time.
    TIME_DEPENDENT = "time_dependent"
    #: Depends on unrecoverable session state (randomness, identity).
    VOLATILE = "volatile"


_NON_TIME_VOLATILE = frozenset(ast.VOLATILE_FUNCTIONS) - frozenset(
    ast.TIME_FUNCTIONS
)


def _determinism_of(functions: set[str]) -> Determinism:
    if functions & _NON_TIME_VOLATILE:
        return Determinism.VOLATILE
    if functions & frozenset(ast.TIME_FUNCTIONS):
        return Determinism.TIME_DEPENDENT
    return Determinism.DETERMINISTIC


def statement_determinism(statement: ast.Statement) -> Determinism:
    """Classify a whole DML statement: the worst of its expressions.

    No literal decides it, so a parsed statement's class is its shape's.
    """
    return shaped(
        statement, SHAPE, "determinism", lambda shape, _slot: _determinism(shape)
    )[0]


def _determinism(statement: ast.Statement) -> Determinism:
    # The worst of its expressions is the class of all they call together.
    return _determinism_of(
        set().union(*map(referenced_functions, ast.expressions(statement)))
    )


def pin_time_functions(
    statement: ast.Statement, at_ms: float
) -> ast.Statement:
    """Rewrite every time-function call to the literal capture timestamp.

    This is what makes ``TIME_DEPENDENT`` statements replayable: the value
    ``NOW()`` had at the source is known (the capture record carries it),
    so substituting it yields a deterministic statement with identical
    effect.  Non-time volatile functions are left untouched — they have no
    recoverable value and the caller must fall back to value deltas.
    """

    def pin(node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.FuncCall) and node.function in ast.TIME_FUNCTIONS:
            return ast.Literal(at_ms)
        return node

    return ast.map_expressions(statement, lambda expr: ast.rewrite(expr, pin))


def op_footprint(
    op: OpDelta,
    table_columns: Mapping[str, Sequence[str]] | None = None,
    views: Sequence[ViewDefinition] = (),
) -> StatementFootprint:
    """The footprint of a captured op, in its *replay* form.

    Pins time functions to the capture timestamp (the integrator replays
    the pinned text, so reordering is judged on what actually runs) and
    marks ops that carry a before image as ``image_replay``: hybrid-view
    maintenance replays those from the image rather than the statement,
    which narrows the commutativity proofs :func:`commutes` may use.
    Every judge of reordering captured ops reads its footprints from a
    :class:`~repro.analysis.conflict.CommutationRecord`, which builds them
    here, so they share one model.

    A DELETE also records which of ``views`` replay it from its image
    (``image_views``): the kind :func:`~repro.core.selfmaint.
    classify_operation` decides is the one ``MaterializedView`` applies —
    a plan's DELETE rule rewrites onto the view only where it answers
    ``OP_ONLY`` for every statement, and defers to it otherwise — and an
    aggregate view replays every DELETE from its image, so it never tells
    two DELETEs apart.
    """
    footprint = extract_footprint(op.statement, table_columns)
    if footprint.determinism is not Determinism.DETERMINISTIC:
        # Only then is there a time function to pin.
        footprint = extract_footprint(
            pin_time_functions(op.statement, op.captured_at), table_columns
        )
    image_views = frozenset(
        view.name for view in views
        if op.kind is OpKind.DELETE and view.base_table == op.table
        and classify_operation(view, op) is not Maintainability.OP_ONLY
    )
    if op.before_image is not None or image_views:
        footprint = dataclasses.replace(
            footprint, image_replay=op.before_image is not None, image_views=image_views
        )
    return footprint


def is_idempotent(footprint: StatementFootprint) -> bool:
    """Whether applying the statement twice equals applying it once.

    A deterministic DELETE is idempotent (the second pass matches nothing
    new).  A deterministic UPDATE is idempotent iff no assignment reads a
    column that is also assigned — ``qty = qty + 1`` accumulates, while
    ``status = 'done'`` converges.  An assignment may also re-match rows it
    moved *into* its own WHERE range, so additionally no assigned column
    may appear in the WHERE clause... except that assignments which pin the
    column to a constant converge regardless.  We keep the simple sound
    rule: assigned columns must not appear among the assignment inputs, and
    any assigned column in the WHERE clause must be assigned a literal.
    INSERT is never idempotent (it adds a row per application).

    The rule reads no literal's value, so the answer is the shape's.
    """
    return shaped(
        footprint.statement, SHAPE, "idempotent",
        lambda _shape, _slot: _idempotent(footprint),
    )[0]


def _idempotent(footprint: StatementFootprint) -> bool:
    if footprint.determinism is not Determinism.DETERMINISTIC:
        return False
    if footprint.kind.name == "DELETE":
        return True
    if footprint.kind.name == "INSERT":
        return False
    assigned = {a.column for a in footprint.assignments}
    for assignment in footprint.assignments:
        if referenced_columns(assignment.expr) & assigned:
            return False
        if assignment.column in footprint.where_columns and not isinstance(
            assignment.expr, ast.Literal
        ):
            return False
    return True


def commutes(
    a: StatementFootprint,
    b: StatementFootprint,
    key_columns: Mapping[str, str] | None = None,
    *,
    structural: bool = True,
) -> bool:
    """Whether applying ``a`` then ``b`` equals applying ``b`` then ``a``.

    ``key_columns`` maps table name to its primary-key column; it is
    required to reason about INSERT pairs, where a key conflict makes the
    outcome order-dependent.  The answer is ``True`` only when reordering
    is provably state-preserving.  ``structural=False`` disables the
    structural-disjointness widening (see the module docstring) and runs
    the original range-only prover.

    **Image replay.**  When either footprint is marked ``image_replay``
    (the captured op carries a before image — see
    :func:`op_footprint`), hybrid-view maintenance replays that op from
    the image: delete-by-key of the captured row plus a full-row
    reinsert.  A full-row reinsert resurrects every column from the
    image, so two writes to the *same* row no longer commute even when
    their assigned columns are disjoint or their assignments commute
    pointwise.  Only proofs that establish provably **disjoint row
    sets** (range or structural disjointness, key-disjoint inserts)
    survive; the pointwise-assignment arguments are disabled.  Two
    DELETEs that some view replays differently (their ``image_views``
    differ) are held to the same disjoint-row-set proofs.
    """
    # Even TIME_DEPENDENT statements do not commute: swapping the order
    # shifts the virtual clock value each one evaluates under.
    if (
        a.determinism is not Determinism.DETERMINISTIC
        or b.determinism is not Determinism.DETERMINISTIC
    ):
        return False
    if a.table != b.table:
        return True
    image_replay = a.image_replay or b.image_replay

    kind_a, kind_b = a.kind.name, b.kind.name
    if kind_a > kind_b:  # normalise pair order: DELETE < INSERT < UPDATE
        a, b = b, a
        kind_a, kind_b = kind_b, kind_a

    if kind_a == "DELETE" and kind_b == "DELETE":
        # Replayed alike on every view, two DELETEs swap freely: statements
        # delete in either order, and a row one deleted at the source cannot
        # be in the other's image.  Where a view replays one from its image
        # and the other from its statement, the statement can remove a row
        # the image then fails to find (a point DELETE that matched nothing
        # because an earlier range DELETE had removed its row): only
        # disjoint row sets make that pair safe.
        return a.image_views == b.image_views or _ranges_disjoint(a, b) or (
            structural and _structurally_disjoint(a, b)
        )
    if kind_a == "UPDATE" and kind_b == "UPDATE":
        return _updates_commute(
            a, b, structural=structural, image_replay=image_replay
        )
    if kind_a == "DELETE" and kind_b == "UPDATE":
        return _delete_update_commute(
            a, b, structural=structural, image_replay=image_replay
        )
    pk = None if key_columns is None else key_columns.get(a.table)
    if kind_a == "INSERT" and kind_b == "INSERT":
        return _inserts_commute(a, b, pk)
    if kind_a == "INSERT" and kind_b == "UPDATE":
        return _insert_update_commute(a, b, pk)
    if kind_a == "DELETE" and kind_b == "INSERT":
        return _delete_insert_commute(a, b, pk)
    return False


def _ranges_disjoint(a: StatementFootprint, b: StatementFootprint) -> bool:
    if a.row_range is None or b.row_range is None:
        return False
    return a.row_range.disjoint_from(b.row_range)


def _cannot_move_into(
    target: StatementFootprint, mover: StatementFootprint
) -> bool:
    """Whether ``mover``'s assignments provably cannot move a row into
    ``target``'s range.

    ``mover`` rewrites some columns; if one of those columns constrains
    ``target``'s WHERE range, the rewrite could make a previously
    unmatched row match.  Safe only when every such assignment is a
    literal that the target's constraint rejects.
    """
    if target.row_range is None:
        return False
    for assignment in mover.assignments:
        constraint = target.row_range.get(assignment.column)
        if constraint is None:
            continue  # target does not constrain this column
        if not isinstance(assignment.expr, ast.Literal):
            return False  # computed value: could land anywhere
        if constraint.admits(assignment.expr.value):
            return False
    return True


def _updates_commute(
    a: StatementFootprint,
    b: StatementFootprint,
    *,
    structural: bool = True,
    image_replay: bool = False,
) -> bool:
    # Case 1: provably disjoint row sets, and neither can move rows into
    # the other's range.
    if (
        _ranges_disjoint(a, b)
        and _cannot_move_into(a, b)
        and _cannot_move_into(b, a)
    ):
        return True
    # Case 1b (widening): the WHERE clauses carry structurally
    # contradicting conjuncts over columns neither statement assigns —
    # the partition is invariant under both writes, so no row can ever
    # match both predicates, in either order.
    if structural and _structurally_disjoint(a, b):
        return True
    # Image replay admits no overlapping-row proof: each op's captured
    # before image is a full row, and the hybrid view path reinserts it
    # whole — the later-applied op resurrects the other's columns.
    if image_replay:
        return False
    # Case 2: possibly-overlapping rows, but the assignments themselves
    # commute pointwise.  Requires that neither WHERE clause references any
    # assigned column (membership is then order-independent), and that for
    # every column assigned by both the updates are of the commuting shape
    # ``c = c OP literal`` with the same associative-commutative operator.
    assigned_a = {x.column for x in a.assignments}
    assigned_b = {x.column for x in b.assignments}
    all_assigned = assigned_a | assigned_b
    if (a.where_columns | b.where_columns) & all_assigned:
        return False
    by_col_a = {x.column: x.expr for x in a.assignments}
    by_col_b = {x.column: x.expr for x in b.assignments}
    for column in all_assigned:
        expr_a = by_col_a.get(column)
        expr_b = by_col_b.get(column)
        if expr_a is not None and expr_b is not None:
            if not _additive_pair(column, expr_a, expr_b):
                return False
            # ``c = c + k`` self-reads are fine, but no *other* assignment
            # in either statement may read the accumulated column.
            for stmt_assignments in (a.assignments, b.assignments):
                if any(
                    column in referenced_columns(x.expr)
                    for x in stmt_assignments
                    if x.column != column
                ):
                    return False
        elif expr_a is not None:
            # Only ``a`` assigns it; ``b`` must not read it as an input.
            if any(
                column in referenced_columns(x.expr) for x in b.assignments
            ):
                return False
        else:
            if any(
                column in referenced_columns(x.expr) for x in a.assignments
            ):
                return False
    return True


def _additive_pair(
    column: str, expr_a: ast.Expression, expr_b: ast.Expression
) -> bool:
    """Both exprs are ``column OP literal`` with the same OP in {+, *}."""
    acc_a = self_accumulation(column, expr_a)
    acc_b = self_accumulation(column, expr_b)
    return acc_a is not None and acc_b is not None and acc_a[0] == acc_b[0]


def self_accumulation(
    column: str, expr: ast.Expression
) -> tuple[str, Any] | None:
    """``(op, literal)`` when ``expr`` is ``column OP literal`` (OP in +, *).

    The accumulating-assignment shape: ``qty = qty + 3`` reads only the
    column it writes, through an associative-commutative operator.  Two
    such assignments commute — and the log compactor can *fold* them into
    one (``qty + 1`` then ``qty + 2`` becomes ``qty + 3``), which is why
    the literal comes back along with the operator.
    """
    if not isinstance(expr, ast.BinaryOp) or expr.op not in ("+", "*"):
        return None
    left, right = expr.left, expr.right
    if isinstance(left, ast.ColumnRef) and left.name == column:
        other = right
    elif isinstance(right, ast.ColumnRef) and right.name == column:
        other = left
    else:
        return None
    if isinstance(other, ast.Literal) and isinstance(other.value, (int, float)):
        return expr.op, other.value
    return None


def conjuncts_imply(
    stronger: ast.Expression | None, weaker: ast.Expression | None
) -> bool:
    """Whether every row matching ``stronger`` provably matches ``weaker``.

    Purely structural: ``weaker``'s top-level AND conjuncts must each
    appear (dataclass-equal) among ``stronger``'s.  A ``None`` (absent)
    WHERE clause matches every row, so it is implied by anything.  This is
    *exact*, not range-based — no superset approximation is involved — and
    it is what lets the compactor prove "every row this UPDATE touches is
    deleted right after" before dropping the UPDATE.
    """
    if weaker is None:
        return True
    needed = split_conjuncts(weaker)
    have = split_conjuncts(stronger)
    return all(any(conjunct == h for h in have) for conjunct in needed)


#: Comparison operators and their exact SQL negations.  ``=`` negates to
#: either inequality spelling the parser accepts, so a contradiction is
#: found regardless of which alias the source statement used.
_NEGATED_OPS: dict[str, tuple[str, ...]] = {
    "=": ("!=", "<>"),
    "!=": ("=",),
    "<>": ("=",),
    "<": (">=",),
    "<=": (">",),
    ">": ("<=",),
    ">=": ("<",),
}


def conjunct_negations(
    conjunct: ast.Expression,
) -> tuple[ast.Expression, ...]:
    """Structural negations of one conjunct, when exactly expressible.

    Soundness under SQL three-valued logic: whenever ``conjunct``
    evaluates TRUE on a row, every returned expression evaluates FALSE on
    that row (a TRUE comparison implies both operands are non-NULL, so
    the flipped comparison is FALSE; the ``negated`` flag on
    ``IN``/``BETWEEN``/``LIKE``/``IS NULL`` is an exact complement).
    Shapes with no exact negation in the AST vocabulary return ``()``.
    """
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _NEGATED_OPS:
        return tuple(
            ast.BinaryOp(op, conjunct.left, conjunct.right)
            for op in _NEGATED_OPS[conjunct.op]
        )
    if isinstance(conjunct, (ast.InList, ast.Between, ast.Like, ast.IsNull)):
        return (dataclasses.replace(conjunct, negated=not conjunct.negated),)
    return ()


def predicates_disjoint(
    a_where: ast.Expression | None, b_where: ast.Expression | None
) -> frozenset[str] | None:
    """Columns witnessing that the two WHERE clauses match disjoint rows.

    Looks for a top-level conjunct of one clause whose structural negation
    is *implied* by the other clause (:func:`conjuncts_imply`): a row
    satisfying both clauses would then make the same conjunct TRUE and
    FALSE at once.  Returns the columns referenced by the contradicting
    conjunct — the partition witness — or ``None`` when no contradiction
    is found.  Callers must check the witness columns stay invariant
    before concluding anything about reordering (see
    :func:`_structurally_disjoint`).
    """
    if a_where is None or b_where is None:
        return None
    for first, second in ((a_where, b_where), (b_where, a_where)):
        for conjunct in split_conjuncts(second):
            for negation in conjunct_negations(conjunct):
                if conjuncts_imply(first, negation):
                    return frozenset(referenced_columns(conjunct))
    return None


def _structurally_disjoint(
    a: StatementFootprint, b: StatementFootprint
) -> bool:
    """Disjoint row sets via contradicting conjuncts + invariant witness.

    The contradiction proves no row satisfies both WHERE clauses *at the
    same instant*; requiring that neither statement assigns a witness
    column extends that to *ever*: the partitioning columns of every row
    are the same before and after either statement runs, so the row sets
    each statement matches — and the values it reads from them — are
    identical in both orders.
    """
    witness = predicates_disjoint(
        getattr(a.statement, "where", None), getattr(b.statement, "where", None)
    )
    if witness is None:
        return False
    assigned = {x.column for x in a.assignments} | {
        x.column for x in b.assignments
    }
    return not (witness & assigned)


def _delete_update_commute(
    delete: StatementFootprint,
    update: StatementFootprint,
    *,
    structural: bool = True,
    image_replay: bool = False,
) -> bool:
    # Safe when the update cannot change which rows the delete matches and
    # deleting first cannot change what the update writes (deleted rows are
    # gone either way, so only membership interference matters).  Sound for
    # statement replay only: an update replayed *from its image* reinserts
    # the captured row on hybrid views even after the delete removed it, so
    # with images present the proof must establish disjoint row sets below.
    update_assigned = {x.column for x in update.assignments}
    if not image_replay and not update_assigned & delete.where_columns:
        return True
    if _ranges_disjoint(delete, update) and _cannot_move_into(
        delete, update
    ):
        return True
    # Widening: a structurally contradicting conjunct pair over columns
    # the update does not assign partitions the rows for good — the
    # delete can never claim a row the update touches, and vice versa.
    return structural and _structurally_disjoint(delete, update)


def _inserts_commute(
    a: StatementFootprint, b: StatementFootprint, pk: str | None
) -> bool:
    # Order matters only through constraint conflicts: if both inserts are
    # literal rows with known, disjoint primary-key point sets, neither can
    # steal the other's key, and the final table content is order-free.
    if pk is None or a.row_range is None or b.row_range is None:
        return False
    ca, cb = a.row_range.get(pk), b.row_range.get(pk)
    if ca is None or cb is None:
        return False
    return not ca.overlaps(cb)


def _insert_update_commute(
    insert: StatementFootprint, update: StatementFootprint, pk: str | None
) -> bool:
    # The inserted rows must provably not match the UPDATE's range (else
    # order decides whether they get updated), and the UPDATE must not
    # rewrite the primary key into the inserted key set.
    if insert.row_range is None or update.row_range is None:
        return False
    if not insert.row_range.disjoint_from(update.row_range):
        return False
    if not _cannot_move_into(insert, update):
        return False
    if pk is None or update.writes_column(pk):
        return False
    return True


def _delete_insert_commute(
    delete: StatementFootprint, insert: StatementFootprint, pk: str | None
) -> bool:
    # Deleting first could free a primary key the insert then takes; the
    # insert's rows must not fall in the delete's range, and their keys
    # must be provably outside any key set the delete touches.
    if insert.row_range is None or delete.row_range is None:
        return False
    if not insert.row_range.disjoint_from(delete.row_range):
        return False
    if pk is None:
        return False
    delete_keys = delete.row_range.get(pk)
    insert_keys = insert.row_range.get(pk)
    if delete_keys is None or insert_keys is None:
        return False
    return not delete_keys.overlaps(insert_keys)
