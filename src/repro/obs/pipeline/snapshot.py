"""Point-in-time pipeline health: the ``repro-bench --health`` payload.

:func:`build_snapshot` folds a :class:`~repro.obs.pipeline.recorder.
PipelineRecorder` (and optionally an auditor pass) into one plain-data
:class:`PipelineSnapshot`: source watermarks, per-table and per-view
freshness, the per-stage lag decomposition and the auditor verdict.  The
snapshot is what the CLI renders and what ``--json`` exports — every value
in it derives from the virtual clock and deterministic counts, so the
same workload produces a byte-identical snapshot on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ...plain import Record
from .auditor import AuditReport
from .recorder import PipelineRecorder


@dataclass
class PipelineSnapshot(Record):
    """Everything ``repro-bench --health`` shows, as plain data."""

    #: Virtual ms at snapshot time (the recorder's clock, or the highest
    #: observed event time when the recorder has no clock).
    generated_at_ms: float = 0.0
    sources: list[dict[str, Any]] = field(default_factory=list)
    tables: list[dict[str, Any]] = field(default_factory=list)
    #: Per-view freshness rows, each with a computed ``staleness_ms``.
    views: list[dict[str, Any]] = field(default_factory=list)
    #: Stage name -> {count, mean, p50, p95, max} (virtual ms).
    stage_lags: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Lifecycle event totals by kind (pre-eviction).
    events: dict[str, int] = field(default_factory=dict)
    events_dropped: int = 0
    conservation: dict[str, int] = field(default_factory=dict)
    verdict: str = "UNAUDITED"
    findings: list[dict[str, Any]] = field(default_factory=list)
    digest_checks: dict[str, bool] = field(default_factory=dict)
    #: Caller extensions (e.g. the health runner's per-pipeline accounting).
    extras: dict[str, Any] = field(default_factory=dict)


def build_snapshot(
    recorder: PipelineRecorder,
    audit: AuditReport | None = None,
    now_ms: float | None = None,
) -> PipelineSnapshot:
    """Fold recorder (and audit) state into one :class:`PipelineSnapshot`."""
    if now_ms is None:
        if recorder._clock is not None:
            now_ms = recorder._clock.now
        else:
            now_ms = max((event.at_ms for event in recorder.log), default=0.0)
    source_high = recorder.source_high_ms()
    snapshot = PipelineSnapshot(
        generated_at_ms=now_ms,
        sources=[
            watermark.to_dict()
            for _name, watermark in sorted(recorder.sources.items())
        ],
        tables=[
            table.to_dict() for _key, table in sorted(recorder.tables.items())
        ],
        views=[
            {**freshness.to_dict(), "staleness_ms": freshness.staleness_ms(source_high)}
            for _name, freshness in sorted(recorder.views.items())
        ],
        stage_lags={
            stage: samples.summary()
            for stage, samples in recorder.lags.items()
            if samples.count
        },
        events=dict(sorted(recorder.log.counts.items())),
        events_dropped=recorder.log.dropped,
        conservation=recorder.conservation(),
    )
    if audit is not None:
        snapshot.verdict = audit.verdict
        snapshot.findings = [finding.to_dict() for finding in audit.findings]
        snapshot.digest_checks = dict(audit.digest_checks)
        snapshot.conservation = dict(audit.conservation)
    return snapshot
