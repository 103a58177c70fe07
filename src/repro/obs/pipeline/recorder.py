"""The pipeline recorder: one sink for every lifecycle observation.

Components call ``record_*`` as an op passes through them (capture,
transport, compaction, integration); the recorder turns those calls into

* :class:`~repro.obs.pipeline.events.LineageEvent` entries in a bounded
  :class:`~repro.obs.pipeline.events.EventLog`;
* a per-op :class:`OpLineage` summary (never evicted) that the
  :class:`~repro.obs.pipeline.auditor.PipelineAuditor` closes its
  conservation proof over;
* source/table watermarks, per-view freshness and stage-lag samples
  (:mod:`repro.obs.pipeline.watermarks`);
* ``obs.pipeline.*`` metrics on the attached registry (ambient
  :func:`repro.obs.context.ambient_metrics` by default).

Timestamps are always supplied by the observing component from **its own**
virtual clock (`at_ms`); the recorder's optional clock is only the default
for snapshot-time "now".  Nothing here imports :mod:`repro.core` — ops and
transaction groups are duck-typed via the structural protocols in
:mod:`repro.obs.pipeline.events`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Protocol, Sequence

from ...clock import VirtualClock
from ...plain import Record
from ..context import ambient_metrics
from ..metrics import NULL_REGISTRY, MetricsLike
from .events import (
    EventLog,
    LifecycleKind,
    LineageEvent,
    lineage_key,
    lineage_source,
)
from .watermarks import LagSamples, SourceWatermark, TableWatermark, ViewFreshness

#: Lag decompositions the recorder samples (virtual ms).
LAG_STAGES = ("capture_to_ship", "ship_to_apply", "commit_to_apply", "end_to_end")


class WindowObserver(Protocol):
    """Anything wanting a callback per shipped window (the flight recorder).

    Structural on purpose: the pipeline layer must not import
    :mod:`repro.obs.flight` (the flight recorder observes the pipeline,
    never the other way round), so the recorder only knows this shape.
    """

    def on_window_shipped(self, recorder: PipelineRecorder, at_ms: float) -> None:
        ...


@dataclass
class OpLineage:
    """Everything known about one correlated op across the pipeline."""

    correlation_id: str
    source: str
    table: str
    txn_id: int
    sequence: int
    captured_at: float
    committed_at: float | None = None
    checked: bool = False
    #: When the op left the source (network ship or durable enqueue).
    shipped_at: float | None = None
    enqueued_at: float | None = None
    acked_at: float | None = None
    #: Warehouse apply times — more than one entry means a duplicate apply.
    applied_at: list[float] = field(default_factory=list)
    #: Global apply order indexes, for reordering detection.
    apply_order: list[int] = field(default_factory=list)
    #: Views maintained by this op's apply.
    views: tuple[str, ...] = ()
    pruned_at: float | None = None
    pruned_stage: str | None = None
    absorbed_at: float | None = None
    #: Correlation id of the surviving statement (None for annihilation).
    absorbed_by: str | None = None
    absorbed_rule: str | None = None
    rejected_at: float | None = None
    rejected_reason: str | None = None
    redeliveries: int = 0

    @property
    def terminal(self) -> str | None:
        """Which conservation bucket the op settled into, if any."""
        if self.applied_at:
            return "applied"
        if self.pruned_at is not None:
            return "pruned"
        if self.absorbed_at is not None:
            return "absorbed"
        if self.rejected_at is not None:
            return "rejected"
        return None

    @property
    def last_stage(self) -> str:
        """The furthest pipeline stage that observed this op (for findings)."""
        terminal = self.terminal
        if terminal is not None:
            return terminal
        if self.acked_at is not None:
            return "acked"
        if self.enqueued_at is not None:
            return "enqueued"
        if self.shipped_at is not None:
            return "shipped"
        return "captured"


@dataclass(frozen=True)
class RaceRecord(Record):
    """One interference-sanitizer detection, kept for audit correlation.

    ``op_a``/``op_b`` are the correlation ids of the unordered
    conflicting pair; ``code`` is the sanitizer's ``RACE1xx`` class.  The
    :class:`~repro.obs.pipeline.auditor.PipelineAuditor` folds these into
    its ``AUD004`` digest-divergence findings instead of reporting the
    two signals independently.
    """

    code: str
    op_a: str
    op_b: str
    table: str
    at_ms: float
    detail: str = ""


class PipelineRecorder:
    """Collects lineage, watermarks and lag samples for one pipeline run."""

    def __init__(
        self,
        clock: VirtualClock | None = None,
        metrics: MetricsLike | None = None,
        flight: WindowObserver | None = None,
    ) -> None:
        self._clock = clock
        self._metrics = metrics
        #: Optional per-shipped-window sampler (the flight recorder).
        self.flight = flight
        self.log = EventLog()
        #: correlation id -> lineage, in first-observation order.
        self.lineage: dict[str, OpLineage] = {}
        self.sources: dict[str, SourceWatermark] = {}
        self.tables: dict[tuple[str, str], TableWatermark] = {}
        self.views: dict[str, ViewFreshness] = {}
        self.lags: dict[str, LagSamples] = {
            stage: LagSamples() for stage in LAG_STAGES
        }
        #: Capture-seam rejections (pre-capture, so no lineage entry).
        self.statements_rejected_at_capture = 0
        #: Interference-sanitizer detections (for AUD004 correlation).
        self.races: list[RaceRecord] = []
        #: Value-delta batches applied (no per-op lineage on that path).
        self.value_batches_applied = 0
        #: Adaptive-switcher routing decisions (table-level, no lineage).
        self.routing_decisions = 0
        self._apply_counter = 0

    # --------------------------------------------------------------- plumbing
    @property
    def metrics(self) -> MetricsLike:
        if self._metrics is not None:
            return self._metrics
        ambient = ambient_metrics()
        return ambient if ambient is not None else NULL_REGISTRY

    def _now(self, at_ms: float | None) -> float:
        if at_ms is not None:
            return at_ms
        return self._clock.now if self._clock is not None else 0.0

    def _emit(
        self,
        kind: LifecycleKind,
        record: OpLineage,
        at_ms: float,
        detail: str = "",
    ) -> None:
        self.log.append(
            LineageEvent(
                kind=kind,
                correlation_id=record.correlation_id,
                at_ms=at_ms,
                source=record.source,
                table=record.table,
                txn_id=record.txn_id,
                sequence=record.sequence,
                detail=detail,
            )
        )
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter(f"obs.pipeline.events.{kind.value}").inc()

    def _ensure(self, op: Any, source: str | None = None) -> OpLineage:
        key = lineage_key(op)
        record = self.lineage.get(key)
        if record is None:
            record = OpLineage(
                correlation_id=key,
                source=source or lineage_source(op),
                table=op.table,
                txn_id=op.txn_id,
                sequence=op.sequence,
                captured_at=op.captured_at,
            )
            self.lineage[key] = record
            watermark = self._source(record.source)
            watermark.capture(record.sequence)
            table = self._table(record.source, record.table)
            table.captured_ops += 1
        return record

    def _source(self, source: str) -> SourceWatermark:
        watermark = self.sources.get(source)
        if watermark is None:
            watermark = SourceWatermark(source=source)
            self.sources[source] = watermark
        return watermark

    def _table(self, source: str, table: str) -> TableWatermark:
        key = (source, table)
        record = self.tables.get(key)
        if record is None:
            record = TableWatermark(source=source, table=table)
            self.tables[key] = record
        return record

    def _view(self, view: str) -> ViewFreshness:
        record = self.views.get(view)
        if record is None:
            record = ViewFreshness(view=view)
            self.views[view] = record
        return record

    def _settle(self, record: OpLineage) -> None:
        self._source(record.source).settle(record.sequence)
        metrics = self.metrics
        if metrics.enabled:
            watermark = self._source(record.source)
            metrics.gauge(
                "obs.pipeline.watermark.low", source=record.source
            ).set(watermark.low_seq)
            metrics.gauge(
                "obs.pipeline.watermark.high", source=record.source
            ).set(watermark.high_seq)

    def _group_ops(self, payload: Any) -> Sequence[Any]:
        """The ops of a duck-typed transaction group ('' for non-groups)."""
        operations = getattr(payload, "operations", None)
        if operations is None or not hasattr(payload, "txn_id"):
            return ()
        return operations

    # ---------------------------------------------------------------- capture
    def record_captured(self, op: Any, source: str, at_ms: float) -> None:
        record = self._ensure(op, source=source)
        self._emit(LifecycleKind.CAPTURED, record, at_ms)
        watermark = self._source(record.source)
        metrics = self.metrics
        if metrics.enabled:
            metrics.gauge(
                "obs.pipeline.watermark.high", source=record.source
            ).set(watermark.high_seq)

    def record_checked(self, op: Any, at_ms: float) -> None:
        record = self._ensure(op)
        record.checked = True
        self._emit(LifecycleKind.CHECKED, record, at_ms)

    def record_rejected_statement(
        self, source: str, table: str, at_ms: float, reason: str
    ) -> None:
        """A statement refused at the capture seam — never became an op."""
        self.statements_rejected_at_capture += 1
        self.log.append(
            LineageEvent(
                kind=LifecycleKind.REJECTED,
                correlation_id=f"{source}:<rejected>",
                at_ms=at_ms,
                source=source,
                table=table,
                detail=reason,
            )
        )
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter("obs.pipeline.events.rejected").inc()

    # -------------------------------------------------------------- transport
    def record_shipped(self, group: Any, at_ms: float) -> None:
        for op in self._group_ops(group):
            record = self._ensure(op)
            record.shipped_at = at_ms
            if group.committed_at is not None:
                record.committed_at = group.committed_at
            self._emit(LifecycleKind.SHIPPED, record, at_ms)
            self.lags["capture_to_ship"].add(at_ms - record.captured_at)

    def record_enqueued(self, payload: Any, at_ms: float) -> None:
        for op in self._group_ops(payload):
            record = self._ensure(op)
            record.enqueued_at = at_ms
            if payload.committed_at is not None:
                record.committed_at = payload.committed_at
            self._emit(LifecycleKind.ENQUEUED, record, at_ms)
            self.lags["capture_to_ship"].add(at_ms - record.captured_at)

    def record_window_shipped(self, at_ms: float, groups: int = 0) -> None:
        """A whole shippable window left the source (shipped or enqueued).

        This is the flight recorder's sampling tick: every window boundary
        snapshots lags, freshness, watermarks, queue depth and metrics at
        one deterministic virtual instant.
        """
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter("obs.pipeline.windows.shipped").inc()
            if groups:
                metrics.counter("obs.pipeline.windows.groups").inc(groups)
        if self.flight is not None:
            self.flight.on_window_shipped(self, at_ms)

    def record_redelivered(self, payload: Any, attempt: int, at_ms: float) -> None:
        for op in self._group_ops(payload):
            record = self._ensure(op)
            record.redeliveries += 1
            self._emit(
                LifecycleKind.REDELIVERED, record, at_ms, detail=f"attempt={attempt}"
            )

    def record_acked(self, payload: Any, at_ms: float) -> None:
        for op in self._group_ops(payload):
            record = self._ensure(op)
            record.acked_at = at_ms
            self._emit(LifecycleKind.ACKED, record, at_ms)

    # -------------------------------------------------------------- rewriting
    def record_pruned(self, op: Any, at_ms: float | None, stage: str) -> None:
        record = self._ensure(op)
        stamp = self._now(at_ms)
        record.pruned_at = stamp
        record.pruned_stage = stage
        self._emit(LifecycleKind.PRUNED, record, stamp, detail=f"stage={stage}")
        self._settle(record)

    def record_absorbed(
        self,
        op: Any,
        absorber: Any | None,
        rule: str,
        at_ms: float | None = None,
    ) -> None:
        """An op rewritten away by compaction, absorbed into ``absorber``.

        ``absorber is None`` means annihilation — the effect vanished
        entirely (INSERT ∘ DELETE), which is still conservation-complete.
        """
        record = self._ensure(op)
        stamp = self._now(at_ms)
        record.absorbed_at = stamp
        record.absorbed_rule = rule
        record.absorbed_by = None if absorber is None else lineage_key(absorber)
        detail = f"rule={rule}"
        if record.absorbed_by is not None:
            detail += f" into={record.absorbed_by}"
        self._emit(LifecycleKind.COMPACTED_AWAY, record, stamp, detail=detail)
        self._settle(record)

    # ------------------------------------------------------------------ apply
    def record_applied(
        self,
        op: Any,
        at_ms: float,
        committed_at: float | None = None,
        views: Iterable[str] = (),
    ) -> None:
        record = self._ensure(op)
        if committed_at is not None:
            record.committed_at = committed_at
        first_apply = not record.applied_at
        record.applied_at.append(at_ms)
        self._apply_counter += 1
        record.apply_order.append(self._apply_counter)
        view_names = tuple(views)
        record.views = view_names
        self._emit(LifecycleKind.APPLIED, record, at_ms)
        if first_apply:
            self._settle(record)
            left_source_at = (
                record.enqueued_at
                if record.enqueued_at is not None
                else record.shipped_at
            )
            if left_source_at is not None:
                self.lags["ship_to_apply"].add(at_ms - left_source_at)
            if record.committed_at is not None:
                self.lags["commit_to_apply"].add(at_ms - record.committed_at)
            self.lags["end_to_end"].add(at_ms - record.captured_at)
            table = self._table(record.source, record.table)
            table.applied_ops += 1
            commit = record.committed_at
            if commit is not None and (
                table.applied_through_ms is None
                or commit > table.applied_through_ms
            ):
                table.applied_through_ms = commit
            for name in view_names:
                freshness = self._view(name)
                freshness.ops_applied += 1
                freshness.last_applied_at_ms = at_ms
                if commit is not None and (
                    freshness.applied_through_ms is None
                    or commit > freshness.applied_through_ms
                ):
                    freshness.applied_through_ms = commit
            metrics = self.metrics
            if metrics.enabled:
                metrics.histogram("obs.pipeline.lag.end_to_end_ms").observe(
                    at_ms - record.captured_at
                )

    def record_committed(self, ops: Iterable[Any], committed_at: float) -> None:
        """Learn a source transaction's commit timestamp (capture-side)."""
        for op in ops:
            record = self._ensure(op)
            record.committed_at = committed_at
            table = self._table(record.source, record.table)
            if (
                table.captured_through_ms is None
                or committed_at > table.captured_through_ms
            ):
                table.captured_through_ms = committed_at

    def record_rejected_op(self, op: Any, at_ms: float, reason: str) -> None:
        """An op refused at apply time (unreplayable volatile statement)."""
        record = self._ensure(op)
        record.rejected_at = at_ms
        record.rejected_reason = reason
        self._emit(LifecycleKind.REJECTED, record, at_ms, detail=reason)
        self._settle(record)

    def record_race(
        self,
        code: str,
        op_a: str,
        op_b: str,
        table: str,
        at_ms: float,
        detail: str = "",
    ) -> None:
        """The interference sanitizer saw an unordered conflicting access.

        ``op_a``/``op_b`` are correlation ids (the sanitizer works on
        already-correlated ops).  The detection is kept on
        :attr:`races` so the auditor can *correlate* it with digest
        divergence rather than report a second, independent finding.
        """
        self.races.append(
            RaceRecord(
                code=code,
                op_a=op_a,
                op_b=op_b,
                table=table,
                at_ms=at_ms,
                detail=detail,
            )
        )
        record = self.lineage.get(op_a)
        event_detail = f"{code} with={op_b}"
        if detail:
            event_detail += f" {detail}"
        if record is not None:
            self._emit(LifecycleKind.RACE, record, at_ms, detail=event_detail)
        else:
            self.log.append(
                LineageEvent(
                    kind=LifecycleKind.RACE,
                    correlation_id=op_a,
                    at_ms=at_ms,
                    table=table,
                    detail=event_detail,
                )
            )
            metrics = self.metrics
            if metrics.enabled:
                metrics.counter("obs.pipeline.events.race").inc()
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter("obs.pipeline.races.detected").inc()

    def record_routed(
        self, table: str, method: str, at_ms: float, detail: str = ""
    ) -> None:
        """An adaptive-switcher routing decision for one (table, window).

        Table-level, like :meth:`record_value_batch`: no per-op lineage
        record is created, so the conservation balance is untouched — the
        ops a decision routes away from op-delta replay settle separately
        as ``PRUNED`` with a ``switcher-<method>`` stage.
        """
        self.routing_decisions += 1
        rendered = f"method={method}"
        if detail:
            rendered += f" {detail}"
        self.log.append(
            LineageEvent(
                kind=LifecycleKind.ROUTED,
                correlation_id=f"switcher:{table}",
                at_ms=at_ms,
                source="switcher",
                table=table,
                detail=rendered,
            )
        )
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter(
                "obs.pipeline.routed", table=table, method=method
            ).inc()

    def record_value_batch(self, table: str, rows: int, at_ms: float) -> None:
        """A value-delta batch applied (no per-op lineage on that path)."""
        self.value_batches_applied += 1
        self.log.append(
            LineageEvent(
                kind=LifecycleKind.APPLIED,
                correlation_id=f"value-delta:{table}",
                at_ms=at_ms,
                source="value-delta",
                table=table,
                detail=f"rows={rows}",
            )
        )
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter("obs.pipeline.value_batches.applied").inc()

    # ------------------------------------------------------------------ reads
    def source_high_ms(self) -> float | None:
        """Newest captured source commit timestamp across all tables."""
        stamps = [
            t.captured_through_ms
            for t in self.tables.values()
            if t.captured_through_ms is not None
        ]
        return max(stamps) if stamps else None

    def conservation(self) -> dict[str, int]:
        """The auditor's balance sheet: captured vs settled buckets."""
        counts = {
            "captured": len(self.lineage),
            "applied": 0,
            "pruned": 0,
            "absorbed": 0,
            "rejected": 0,
            "in_flight": 0,
        }
        for record in self.lineage.values():
            terminal = record.terminal
            if terminal is None:
                counts["in_flight"] += 1
            else:
                counts[terminal] += 1
        return counts
