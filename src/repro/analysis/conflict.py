"""Transaction conflict graph over captured Op-Delta transactions.

Two transactions *conflict* when any statement of one fails to commute
with any statement of the other (see :func:`repro.analysis.safety.commutes`).
Non-conflicting transactions can be applied to the warehouse in either
order — or concurrently — without changing the final state, which is what
lets the scheduler overlap delta application instead of serialising the
whole drain.

The graph's connected components are the unit of parallelism: transactions
inside a component must keep their capture order, components themselves
are mutually independent.

A window's conflicting transaction pairs are found by one sweep
(:meth:`CommutationRecord.conflicts`), not by asking every pair.  Only a
*candidate* op pair reaches ``commutes``: one holding a non-deterministic
op, two ops on a table with no known key, two ops on one keyed table whose
key intervals overlap (touching endpoints included) or either of which is
*wide* — no usable key constraint, or an UPDATE that assigns the key — and,
keys apart or not, an UPDATE and an op constraining a column the UPDATE
assigns with a value the constraint may admit (the *mover trap*:
``commutes`` also asks ``_cannot_move_into``).  Every other pair is proved
commuting by a disjoint-row-set case of ``commutes``, which holds with or
without the structural widening and under image replay, so the record reads
it as commuting without proving it.  The graph carries the record, and the
schedule certifier reads the same pairs and verdicts from it.  This module
holds the one ``commutes`` call: every other judge of op reordering reads a
record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..core.opdelta import OpDelta, OpDeltaTransaction, OpKind
from ..obs.metrics import MetricsLike
from ..sql import ast_nodes as ast
from .rwsets import ColumnConstraint, Interval, StatementFootprint
from .safety import Determinism, commutes, op_footprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .analyzer import OpDeltaAnalyzer


class CommutationRecord:
    """Every commutation verdict of one window, each proved once.

    Made by :meth:`~repro.analysis.analyzer.OpDeltaAnalyzer.record` (or
    :meth:`~repro.analysis.analyzer.OpDeltaAnalyzer.conflict_graph`) and
    proving under that analyzer's catalogs: its key columns, column orders
    and views.  Every judge of op reordering reads one — the conflict graph,
    the schedule certifier, the interference sanitizer and the coalescer —
    so they cannot disagree about a pair.

    An op's footprint is its replay form (:func:`~repro.analysis.safety.
    op_footprint`), computed on first use.  An op pair's cell holds
    ``commutes``' verdict, proved on first read.  A window's conflicting
    transaction pairs come from one sweep (:meth:`conflicts`, see the module
    docstring), which proves only candidate op pairs and reads every other
    pair as commuting; whatever a judge asks outside it — an in-group
    inversion, the pinned copy an apply observes — is proved on first read.

    Ops and windows are keyed by identity, and the record keeps each one it
    has seen alive, so no identity is reused while its entry stands.  A pair
    is keyed in the order it is asked: the structural widening can find its
    proof in one orientation only.
    """

    def __init__(self, analyzer: "OpDeltaAnalyzer", *, structural: bool) -> None:
        self._analyzer = analyzer
        self._key_columns = analyzer.key_columns or None
        self._table_columns = analyzer.table_columns or None
        self._views = analyzer.views
        self._structural = structural
        self._footprints: dict[int, tuple[OpDelta, StatementFootprint]] = {}
        self._cells: dict[tuple[int, int], bool] = {}
        #: ids of a window's groups -> (the groups, its conflicting pairs)
        self._windows: dict[tuple[int, ...], tuple[Any, ...]] = {}

    @property
    def metrics(self) -> MetricsLike:
        """Where the judges reading this record count: its analyzer's."""
        return self._analyzer.metrics

    def footprint(self, op: OpDelta) -> StatementFootprint:
        if id(op) not in self._footprints:
            footprint = op_footprint(op, self._table_columns, self._views)
            self._footprints[id(op)] = (op, footprint)
        return self._footprints[id(op)][1]

    def commute(self, a: OpDelta, b: OpDelta) -> bool:
        """Whether ``a`` then ``b`` equals ``b`` then ``a``."""
        key = (id(a), id(b))
        if key not in self._cells:
            self._cells[key] = commutes(
                self.footprint(a), self.footprint(b), self._key_columns,
                structural=self._structural,
            )
        return self._cells[key]

    def conflicts(
        self, groups: Sequence[OpDeltaTransaction]
    ) -> list[tuple[int, int, tuple[OpDelta, OpDelta]]]:
        """``(i, j, witness)`` for each conflicting ``groups[i]``, ``groups[j]``.

        In ``(i, j)`` order, ``i < j``; the witness is the pair's first
        non-commuting op pair in op order, asked early op first.
        """
        key = tuple(map(id, groups))
        if key in self._windows:
            return self._windows[key][1]
        ops = [(i, p) for i, g in enumerate(groups) for p in range(len(g.operations))]
        footprints = [self.footprint(groups[i].operations[p]) for i, p in ops]
        asked: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for x, y in _candidates(footprints, self._key_columns or {}):
            (i, p), (j, q) = ops[x], ops[y]
            if i != j:
                asked.setdefault((i, j), []).append((p, q))
        found = []
        for (i, j), positions in sorted(asked.items()):
            early, late = groups[i].operations, groups[j].operations
            for p, q in sorted(positions):
                if not self.commute(early[p], late[q]):
                    found.append((i, j, (early[p], late[q])))
                    break
        self._windows[key] = (tuple(groups), found)
        return found


def _candidates(
    footprints: Sequence[StatementFootprint], key_columns: Mapping[str, str]
) -> set[tuple[int, int]]:
    """The op pairs ``(x, y)``, ``x < y``, that ``commutes`` may refuse.

    Sound only while every pair left out commutes; see the module docstring.
    """
    pairs: set[tuple[int, int]] = set()

    def join(x: int, ys: Iterable[int]) -> None:
        pairs.update((min(x, y), max(x, y)) for y in ys if y != x)

    tables: dict[str, list[int]] = {}
    for x, footprint in enumerate(footprints):
        if footprint.determinism is Determinism.DETERMINISTIC:
            tables.setdefault(footprint.table, []).append(x)
        else:
            join(x, range(len(footprints)))
    for table, members in tables.items():
        pk = key_columns.get(table)
        keys = {x: _key_intervals(footprints[x], pk) for x in members}
        narrow = [x for x in members if keys[x] is not None]
        for x in set(members) - set(narrow):
            join(x, members)
        try:  # by low bound, each interval joined with those still open
            starts = sorted((_bound(i.low, 0), x, _bound(i.high, 2))
                            for x in narrow for i in keys[x] or ())
            active: list[tuple[Any, int]] = []
            for low, x, high in starts:
                active = [(h, y) for h, y in active if not h < low]
                join(x, (y for _, y in active))
                active.append((high, x))
        except TypeError:  # key values that do not order against each other
            for x in narrow:
                join(x, narrow)
        _movers(footprints, narrow, join)
    return pairs


def _bound(value: Any, unbounded: int) -> tuple[int, Any]:
    """An interval bound as a sort key: 0 is minus, 2 plus infinity."""
    return (unbounded, None) if value is None else (1, value)


def _key_intervals(
    footprint: StatementFootprint, pk: str | None
) -> tuple[Interval, ...] | None:
    """The op's key intervals; ``None`` when the op is wide."""
    ranged = footprint.row_range
    constraint = None if pk is None or ranged is None else ranged.get(pk)
    if constraint is None or constraint.null_only or (
        footprint.kind is OpKind.UPDATE and pk in footprint.writes
    ):
        return None
    return constraint.intervals


def _family(value: Any) -> type | None:
    """Values of one family order; a point admits only its equals in it."""
    if isinstance(value, (int, float)) and value == value:
        return float
    return str if isinstance(value, str) else None


def _movers(
    footprints: Sequence[StatementFootprint], narrow: list[int], join: Any
) -> None:
    """Join each UPDATE with every op whose range constrains a column the
    UPDATE assigns and may admit the value: the UPDATE may move a row into
    that range (``_cannot_move_into``).

    Where a column's constraints are points of one family, the ops are found
    by (column, value); otherwise each is asked whether it admits the value.
    """
    targets: dict[str, list[tuple[int, ColumnConstraint]]] = {}
    points: dict[tuple[str, Any], list[int]] = {}
    families: dict[str, set[type | None]] = {}
    assigned = {a.column for x in narrow for a in footprints[x].assignments}
    for x in narrow:
        ranged = footprints[x].row_range
        assert ranged is not None  # a narrow op has a key constraint
        for column, constraint in ranged.columns.items():
            if column not in assigned:
                continue
            targets.setdefault(column, []).append((x, constraint))
            for i in constraint.intervals:
                family = _family(i.low) if i.is_point else None
                families.setdefault(column, set()).add(family)
                points.setdefault((column, i.low), []).append(x)
    for x in narrow:
        for assignment in footprints[x].assignments:
            column, expr = assignment.column, assignment.expr
            value = expr.value if isinstance(expr, ast.Literal) else None
            family = _family(value) if isinstance(expr, ast.Literal) else None
            if family is not None and families.get(column, {family}) == {family}:
                join(x, points.get((column, value), ()))
            else:
                join(x, (
                    y for y, constraint in targets.get(column, ())
                    if family is None or constraint.admits(value)
                ))


@dataclass(frozen=True)
class ConflictGraph:
    """Pairwise conflicts between captured transactions.

    ``components`` groups transaction ids into connected components, each
    listed in original capture order; singleton components are transactions
    that conflict with nothing.  ``record`` holds the verdicts the edges
    were drawn from.
    """

    txn_ids: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]
    record: CommutationRecord = field(compare=False, repr=False)

    @property
    def component_count(self) -> int:
        return len(self.components)

    @property
    def largest_component(self) -> int:
        return max((len(c) for c in self.components), default=0)


def build_conflict_graph(
    groups: Sequence[OpDeltaTransaction], record: CommutationRecord
) -> ConflictGraph:
    """Build the conflict graph for a batch of captured transactions.

    Every verdict comes from ``record``, which the graph then carries: the
    analyzer's catalogs sharpen the proofs, and its views tell two DELETEs
    a view replays differently apart (see :mod:`repro.analysis.safety`).
    """
    # Time-dependent statements are analyzed in their *pinned* form: the
    # integrator replays them with the capture timestamp substituted, so
    # their replay really is deterministic and reordering them is judged on
    # the pinned text.  Truly volatile statements stay volatile and
    # therefore conflict with everything.  Ops captured with before images
    # are marked for image replay, which restricts the commutativity
    # proofs to disjoint-row-set arguments (see ``safety.op_footprint``).
    txn_ids = tuple(g.txn_id for g in groups)
    parent = list(range(len(groups)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edges: list[tuple[int, int]] = []
    for i, j, _witness in record.conflicts(groups):
        edges.append((txn_ids[i], txn_ids[j]))
        root_i, root_j = find(i), find(j)
        if root_i != root_j:
            parent[root_j] = root_i
    by_root: dict[int, list[int]] = {}
    for i in range(len(groups)):
        by_root.setdefault(find(i), []).append(txn_ids[i])
    components = tuple(
        tuple(members) for _, members in sorted(by_root.items())
    )
    graph = ConflictGraph(txn_ids, tuple(edges), components, record)
    registry = record.metrics
    registry.counter("analysis.conflict.edges").inc(len(edges))
    registry.gauge("analysis.conflict.components").set(len(components))
    registry.gauge("analysis.conflict.largest_component").set(
        graph.largest_component
    )
    return graph


def parallel_order(
    groups: Sequence[OpDeltaTransaction], graph: ConflictGraph
) -> list[OpDeltaTransaction]:
    """An alternative application order that interleaves the components.

    Round-robins one transaction at a time across the graph's components
    while preserving capture order *inside* each component.  Applying the
    result serially must yield the same warehouse state as the original
    order — this is the dynamic check that validates the analyzer.
    """
    by_id = {g.txn_id: g for g in groups}
    queues = [list(component) for component in graph.components]
    ordered: list[OpDeltaTransaction] = []
    while any(queues):
        for queue in queues:
            if queue:
                ordered.append(by_id[queue.pop(0)])
    return ordered
