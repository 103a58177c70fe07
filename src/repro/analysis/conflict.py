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

Each pair is proved once per window.  The graph carries the
:class:`CommutationRecord` it was built from, and the schedule certifier
reads its verdicts from there instead of proving the same pairs again.
This module holds the one ``commutes`` call: every other judge of op
reordering reads a record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from ..core.opdelta import OpDelta, OpDeltaTransaction
from ..obs.metrics import MetricsLike
from .rwsets import StatementFootprint
from .safety import commutes, op_footprint

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
    ``commutes``' verdict, proved on first read; a transaction pair's entry
    is its first non-commuting cell.  Whatever nobody asked for yet — a
    transaction outside the graph, an in-group inversion, the pinned copy
    an apply observes — is proved by the same code when it is first read.

    Ops and transactions are keyed by identity, and the record keeps each
    one it has seen alive, so no identity is reused while its entry stands.
    A pair is keyed in the order it is asked: the structural widening can
    find its proof in one orientation only.
    """

    def __init__(self, analyzer: "OpDeltaAnalyzer", *, structural: bool) -> None:
        self._analyzer = analyzer
        self._key_columns = analyzer.key_columns or None
        self._table_columns = analyzer.table_columns or None
        self._views = analyzer.views
        self._structural = structural
        self._footprints: dict[int, tuple[OpDelta, StatementFootprint]] = {}
        self._cells: dict[tuple[int, int], bool] = {}
        #: (id early, id late) -> (early, late, first non-commuting op pair)
        self._witnesses: dict[tuple[int, int], tuple[Any, ...]] = {}

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

    def conflict(
        self, early: OpDeltaTransaction, late: OpDeltaTransaction
    ) -> tuple[OpDelta, OpDelta] | None:
        """The first op pair of ``early`` × ``late`` that does not commute."""
        key = (id(early), id(late))
        if key not in self._witnesses:
            pairs = ((a, b) for a in early.operations for b in late.operations)
            witness = next((p for p in pairs if not self.commute(*p)), None)
            self._witnesses[key] = (early, late, witness)
        return self._witnesses[key][2]


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
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            if record.conflict(groups[i], groups[j]) is not None:
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
