"""The ``sys.*`` virtual tables: schemas plus snapshot adapters.

Each system table is a :class:`~repro.engine.schema.TableSchema` (so the
semantic checker can resolve and type ad-hoc telemetry queries exactly
like application SQL) paired with an adapter that folds one live
observability store into plain row tuples.  Adapters *read* — they never
mutate the store, never advance its clock, and tolerate a store that was
never wired up (``None`` in the :class:`StoreBundle` yields an empty
table, not an error).

The tables and their sources:

=====================  ====================================================
``sys.events``         :class:`~repro.obs.pipeline.events.EventLog`
``sys.metrics``        :class:`~repro.obs.metrics.MetricsRegistry`
``sys.watermarks``     recorder source/table watermarks
``sys.lag``            recorder four-stage lag samples
``sys.series``         :class:`~repro.obs.flight.series.TimeSeriesStore`
``sys.cost``           :class:`~repro.obs.flight.attribution.CostLedger`
``sys.slo``            :class:`~repro.obs.flight.slo.SLOEngine` history
``sys.critical_path``  :class:`.forensics.CriticalPathAnalyzer`
``sys.templates``      the statement template table (process-wide)
=====================  ====================================================

``sys.templates`` is the odd one out: it reads
:data:`repro.sql.parser.TEMPLATES`, which belongs to the process and to no
bundle (:data:`PROCESS_TABLES`) — one row per statement shape with how often
it was looked up, bound and had a fact built on it.  Counts only: what a
template saved in host time is not something this package may read.

Rows are served to the executor as the adapter yields them (see
:mod:`.catalog`): no value passes through a record codec, so text comes
back whole and in its own characters, and each adapter yields exactly
its column's Python type (``str`` / ``int`` / ``float``, or ``None``)
because nothing downstream coerces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

from ...engine.schema import Column, TableSchema
from ...engine.types import FLOAT, INTEGER, char
from ...sql.parser import TEMPLATES
from ..flight.attribution import CostLedger
from ..flight.series import TimeSeriesStore
from ..flight.slo import SLOEngine
from ..metrics import Counter, Gauge, Histogram, MetricsRegistry
from ..pipeline.recorder import PipelineRecorder
from .forensics import CriticalPathAnalyzer

Row = tuple[Any, ...]

#: ``lane=<n>`` marker inside an event's detail text (the batched
#: integrator's lane scheduler stamps it); absent means NULL.
_LANE_PATTERN = re.compile(r"\blane=(\d+)\b")

#: A text column.  Nothing stores these rows, so the width bounds nothing:
#: the checker and the access-path chooser read only that it is text.
TEXT = char(255)


@dataclass
class StoreBundle:
    """The live stores one catalog reads.  Every field is optional —

    a bundle models whatever subset of the observability stack the
    current run actually wired up, and adapters render missing stores
    as empty tables.
    """

    recorder: PipelineRecorder | None = None
    metrics: MetricsRegistry | None = None
    series: TimeSeriesStore | None = None
    ledger: CostLedger | None = None
    slo: SLOEngine | None = None


@dataclass(frozen=True)
class SysTable:
    """One virtual table: its relational schema and its snapshot adapter."""

    schema: TableSchema
    rows: Callable[[StoreBundle], list[Row]]

    @property
    def name(self) -> str:
        return self.schema.name


# ------------------------------------------------------------------- schemas
EVENTS_SCHEMA = TableSchema(
    "sys.events",
    [
        Column("correlation_id", TEXT, nullable=False),
        Column("kind", TEXT, nullable=False),
        Column("at_ms", FLOAT, nullable=False),
        Column("source", TEXT),
        Column("table_name", TEXT),
        Column("txn_id", INTEGER),
        Column("sequence", INTEGER),
        Column("lane", INTEGER),
        Column("detail", TEXT),
    ],
)

METRICS_SCHEMA = TableSchema(
    "sys.metrics",
    [
        Column("name", TEXT, nullable=False),
        Column("kind", TEXT, nullable=False),
        Column("value", FLOAT, nullable=False),
    ],
)

WATERMARKS_SCHEMA = TableSchema(
    "sys.watermarks",
    [
        Column("source", TEXT, nullable=False),
        Column("table_name", TEXT),
        Column("low_seq", INTEGER),
        Column("high_seq", INTEGER),
        Column("captured", INTEGER),
        Column("settled", INTEGER),
        Column("in_flight", INTEGER),
        Column("captured_ops", INTEGER),
        Column("applied_ops", INTEGER),
        Column("captured_through_ms", FLOAT),
        Column("applied_through_ms", FLOAT),
        Column("lag_ms", FLOAT),
    ],
)

LAG_SCHEMA = TableSchema(
    "sys.lag",
    [
        Column("stage", TEXT, nullable=False),
        Column("sample_index", INTEGER, nullable=False),
        Column("value_ms", FLOAT, nullable=False),
    ],
)

SERIES_SCHEMA = TableSchema(
    "sys.series",
    [
        Column("series", TEXT, nullable=False),
        Column("sample_index", INTEGER, nullable=False),
        Column("at_ms", FLOAT, nullable=False),
        Column("value", FLOAT, nullable=False),
    ],
)

COST_SCHEMA = TableSchema(
    "sys.cost",
    [
        Column("stage", TEXT, nullable=False),
        Column("entity", TEXT, nullable=False),
        Column("self_ns", INTEGER, nullable=False),
        Column("self_ms", FLOAT, nullable=False),
        Column("spans", INTEGER, nullable=False),
    ],
)

SLO_SCHEMA = TableSchema(
    "sys.slo",
    [
        Column("code", TEXT, nullable=False),
        Column("severity", TEXT, nullable=False),
        Column("state", TEXT, nullable=False),
        Column("at_ms", FLOAT, nullable=False),
        Column("objective", TEXT, nullable=False),
        Column("entity", TEXT, nullable=False),
        Column("short_burn", FLOAT, nullable=False),
        Column("long_burn", FLOAT, nullable=False),
        Column("message", TEXT, nullable=False),
    ],
)

CRITICAL_PATH_SCHEMA = TableSchema(
    "sys.critical_path",
    [
        Column("correlation_id", TEXT, nullable=False),
        Column("source", TEXT, nullable=False),
        Column("table_name", TEXT, nullable=False),
        Column("window_index", INTEGER, nullable=False),
        Column("views", TEXT, nullable=False),
        Column("check_ms", FLOAT, nullable=False),
        Column("ship_ms", FLOAT, nullable=False),
        Column("queue_ms", FLOAT, nullable=False),
        Column("apply_ms", FLOAT, nullable=False),
        Column("end_to_end_ms", FLOAT, nullable=False),
        Column("critical_stage", TEXT, nullable=False),
    ],
)

TEMPLATES_SCHEMA = TableSchema(
    "sys.templates",
    [
        Column("shape", TEXT, nullable=False),
        Column("kind", TEXT, nullable=False),
        Column("table_name", TEXT),
        Column("hits", INTEGER, nullable=False),
        Column("binds", INTEGER, nullable=False),
        Column("builds", INTEGER, nullable=False),
    ],
)


# ------------------------------------------------------------------ adapters
def _events_rows(bundle: StoreBundle) -> list[Row]:
    if bundle.recorder is None:
        return []
    rows: list[Row] = []
    for event in bundle.recorder.log:
        lane_match = _LANE_PATTERN.search(event.detail) if event.detail else None
        rows.append(
            (
                event.correlation_id,
                event.kind.value,
                float(event.at_ms),
                event.source,
                event.table,
                event.txn_id,
                event.sequence,
                int(lane_match.group(1)) if lane_match else None,
                event.detail,
            )
        )
    return rows


def _metrics_rows(bundle: StoreBundle) -> list[Row]:
    if bundle.metrics is None:
        return []
    rows: list[Row] = []
    for instrument in bundle.metrics.instruments():
        # Histograms expose their observation count as the scalar; the
        # distribution itself lives in sys.lag / sys.series.
        if isinstance(instrument, Histogram):
            value = float(instrument.count)
        elif isinstance(instrument, (Counter, Gauge)):
            value = float(instrument.value)
        else:  # pragma: no cover - the registry mints only these three
            continue
        rows.append((instrument.qualified_name, instrument.kind, value))
    return rows


def _watermarks_rows(bundle: StoreBundle) -> list[Row]:
    if bundle.recorder is None:
        return []
    rows: list[Row] = []
    for name in sorted(bundle.recorder.sources):
        source = bundle.recorder.sources[name]
        rows.append(
            (
                source.source,
                None,
                source.low_seq,
                source.high_seq,
                source.captured,
                source.settled,
                source.in_flight,
                None,
                None,
                None,
                None,
                None,
            )
        )
    for key in sorted(bundle.recorder.tables):
        table = bundle.recorder.tables[key]
        rows.append(
            (
                table.source,
                table.table,
                None,
                None,
                None,
                None,
                None,
                table.captured_ops,
                table.applied_ops,
                table.captured_through_ms,
                table.applied_through_ms,
                table.lag_ms,
            )
        )
    return rows


def _lag_rows(bundle: StoreBundle) -> list[Row]:
    if bundle.recorder is None:
        return []
    rows: list[Row] = []
    for stage in sorted(bundle.recorder.lags):
        samples = bundle.recorder.lags[stage]
        for index, value in enumerate(samples.values):
            rows.append((stage, index, float(value)))
    return rows


def _series_rows(bundle: StoreBundle) -> list[Row]:
    if bundle.series is None:
        return []
    rows: list[Row] = []
    for name in bundle.series.names():
        series = bundle.series.get(name)
        if series is None:  # pragma: no cover - names() only lists existing
            continue
        # Global sample ordinals: a ring that evicted N samples starts at
        # index N, making retention loss visible as a gap from zero.
        base = series.recorded - len(series)
        for offset, (at_ms, value) in enumerate(series.window()):
            rows.append((name, base + offset, float(at_ms), float(value)))
    return rows


def _cost_rows(bundle: StoreBundle) -> list[Row]:
    if bundle.ledger is None:
        return []
    return [
        (
            row.stage,
            row.entity,
            int(row.self_ns),
            float(row.self_ms),
            int(row.spans),
        )
        for row in bundle.ledger.rows()
    ]


#: SLO finding code -> alert state: odd codes fire, even codes clear,
#: SLO005 means the window had no data to judge.
_SLO_STATES = {
    "SLO001": "fired",
    "SLO002": "cleared",
    "SLO003": "fired",
    "SLO004": "cleared",
    "SLO005": "no-data",
}


def _slo_rows(bundle: StoreBundle) -> list[Row]:
    if bundle.slo is None:
        return []
    return [
        (
            finding.code,
            finding.severity,
            _SLO_STATES.get(finding.code, "fired"),
            float(finding.at_ms),
            finding.objective,
            finding.entity,
            float(finding.short_burn),
            float(finding.long_burn),
            finding.message,
        )
        for finding in bundle.slo.history
    ]


def _critical_path_rows(bundle: StoreBundle) -> list[Row]:
    if bundle.recorder is None:
        return []
    return [
        (
            row.correlation_id,
            row.source,
            row.table,
            row.window_index,
            ",".join(row.views),
            row.check_ms,
            row.ship_ms,
            row.queue_ms,
            row.apply_ms,
            row.end_to_end_ms,
            row.critical_stage,
        )
        for row in CriticalPathAnalyzer(bundle.recorder).rows()
    ]


def _templates_rows(bundle: StoreBundle) -> list[Row]:
    return [
        (
            template.shape,
            type(template.statement).__name__.removesuffix("Stmt").upper(),
            getattr(template.statement, "table", None),
            template.hits,
            template.binds,
            template.builds,
        )
        for template in TEMPLATES.templates()
    ]


#: The catalog: every virtual table, keyed by its qualified name.
SYS_TABLES: dict[str, SysTable] = {
    table.name: table
    for table in (
        SysTable(EVENTS_SCHEMA, _events_rows),
        SysTable(METRICS_SCHEMA, _metrics_rows),
        SysTable(WATERMARKS_SCHEMA, _watermarks_rows),
        SysTable(LAG_SCHEMA, _lag_rows),
        SysTable(SERIES_SCHEMA, _series_rows),
        SysTable(COST_SCHEMA, _cost_rows),
        SysTable(SLO_SCHEMA, _slo_rows),
        SysTable(CRITICAL_PATH_SCHEMA, _critical_path_rows),
        SysTable(TEMPLATES_SCHEMA, _templates_rows),
    )
}

#: The tables that read process-wide state rather than a bundle's stores: a
#: report on one run's stores leaves them out.
PROCESS_TABLES = frozenset({TEMPLATES_SCHEMA.name})
