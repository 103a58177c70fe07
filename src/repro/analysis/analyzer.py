"""The Op-Delta analyzer facade.

:class:`OpDeltaAnalyzer` bundles the footprint extractor, the safety
classifier and the relevance matcher behind one object that the capture
hook, the transport layer and the warehouse integrator all share.  Its
product is the :class:`AnalysisRecord` — a per-statement summary that
rides along with the captured :class:`~repro.core.opdelta.OpDelta` and
answers the three questions the downstream layers ask:

* *Can this statement be replayed?*  (``record.safe`` / ``record.pinnable``
  — volatile statements need the value-delta fallback.)
* *Does anything at the warehouse care?*  (``record.pruned`` — if not,
  the integrator skips the statement.)
* *Does this transaction conflict with that one?*  (:meth:`OpDeltaAnalyzer.
  conflict_graph`: one :func:`~repro.analysis.safety.commutes` verdict per
  candidate op pair of the window, under this analyzer's catalogs; every
  other judge of op reordering reads an :meth:`OpDeltaAnalyzer.record` of
  its own.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..core.opdelta import OpDelta, OpDeltaTransaction
from ..core.selfmaint import ViewDefinition
from ..obs.context import ambient_metrics
from ..obs.metrics import NULL_REGISTRY, MetricsLike
from ..scope import Scope
from ..sql import ast_nodes as ast
from ..sql.templates import shaped
from .conflict import CommutationRecord, ConflictGraph, build_conflict_graph
from .relevance import RelevanceVerdict, settle_relevance, shape_relevance
from .rwsets import StatementFootprint, extract_footprint
from .safety import Determinism, is_idempotent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..warehouse.aggregates import AggregateViewDefinition


@dataclass(frozen=True)
class AnalysisRecord:
    """Everything the static analyzer knows about one statement."""

    footprint: StatementFootprint
    determinism: Determinism
    idempotent: bool
    relevance: RelevanceVerdict

    @property
    def pruned(self) -> bool:
        return self.relevance.pruned

    @property
    def safe(self) -> bool:
        """Replayable as captured, without any rewriting."""
        return self.determinism is Determinism.DETERMINISTIC

    @property
    def pinnable(self) -> bool:
        """Replayable after substituting the capture timestamp."""
        return self.determinism is Determinism.TIME_DEPENDENT

    def to_dict(self) -> dict[str, Any]:
        """A flat, JSON-friendly rendering for reports and traces."""
        return {
            "table": self.footprint.table,
            "kind": self.footprint.kind.name,
            "reads": sorted(self.footprint.reads),
            "writes": sorted(self.footprint.writes)
            if not self.footprint.writes_all_columns
            else ["*"],
            "determinism": self.determinism.value,
            "idempotent": self.idempotent,
            "pruned": self.pruned,
            "relevant_views": list(self.relevance.relevant_views),
        }


class OpDeltaAnalyzer:
    """Static analyzer for captured Op-Delta statements.

    ``views`` and ``mirrored_tables`` describe the warehouse's interest for
    relevance pruning; ``key_columns`` (table → primary-key column) and
    ``table_columns`` (table → column order) sharpen the commutativity and
    footprint analyses.  All four are optional — each omission only makes
    the analyzer more conservative, never unsound — except that ``views``
    is also how the conflict graph learns which DELETEs a view replays from
    their before images: a view it is not told of, it cannot keep apart.
    """

    def __init__(
        self,
        views: Sequence[ViewDefinition] = (),
        mirrored_tables: Iterable[str] = (),
        key_columns: Mapping[str, str] | None = None,
        table_columns: Mapping[str, Sequence[str]] | None = None,
        metrics: MetricsLike | None = None,
        aggregate_views: Sequence["AggregateViewDefinition"] = (),
    ) -> None:
        self.views = tuple(views)
        self.aggregate_views = tuple(aggregate_views)
        self.mirrored_tables = frozenset(mirrored_tables)
        self.key_columns = dict(key_columns) if key_columns else {}
        self.table_columns = (
            {t: tuple(cols) for t, cols in table_columns.items()}
            if table_columns
            else {}
        )
        self._metrics = metrics
        #: What this analyzer's per-shape facts read: its view catalog.
        self._scope = Scope()

    @property
    def metrics(self) -> MetricsLike:
        if self._metrics is not None:
            return self._metrics
        ambient = ambient_metrics()
        return ambient if ambient is not None else NULL_REGISTRY

    # ------------------------------------------------------------- analysis
    def analyze_statement(self, statement: ast.Statement) -> AnalysisRecord:
        footprint = extract_footprint(statement, self.table_columns or None)
        determinism = footprint.determinism
        # Which views a statement of this shape can reach at all is settled
        # once per shape (from this footprint: the shape half reads no
        # literal); the row tests run on this statement's own.
        reach, _literals = shaped(
            statement,
            self._scope,
            "relevance",
            lambda _shape, _slot: shape_relevance(
                footprint,
                self.views,
                self.mirrored_tables,
                aggregate_views=self.aggregate_views,
            ),
        )
        relevance = settle_relevance(reach, footprint)
        record = AnalysisRecord(
            footprint=footprint,
            determinism=determinism,
            idempotent=is_idempotent(footprint),
            relevance=relevance,
        )
        metrics = self.metrics
        metrics.counter("analysis.statement.total").inc()
        metrics.counter(f"analysis.statement.{determinism.value}").inc()
        if record.idempotent:
            metrics.counter("analysis.statement.idempotent").inc()
        if record.pruned:
            metrics.counter("analysis.statement.pruned").inc()
        return record

    def analyze_op(self, op: OpDelta) -> AnalysisRecord:
        return self.analyze_statement(op.statement)

    # -------------------------------------------------------------- actions
    def record(self) -> CommutationRecord:
        """A fresh commutation record proving under this analyzer's catalogs.

        Every judge of op reordering reads one per window it judges (see
        :class:`~repro.analysis.conflict.CommutationRecord`).
        """
        return CommutationRecord(self, structural=True)

    def conflict_graph(
        self, groups: Sequence[OpDeltaTransaction], structural: bool = True
    ) -> ConflictGraph:
        """The conflict graph of a drained batch (see :mod:`.conflict`).

        ``structural=False`` proves without the structural widening, which
        is how the certify pass measures the parallelism the widening buys.
        """
        return build_conflict_graph(
            groups, CommutationRecord(self, structural=structural)
        )
