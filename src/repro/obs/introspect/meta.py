"""The meta-observatory: the pipeline observing itself with its own tools.

The source paper's thesis is that extracted views are cheapest to keep
fresh by shipping deltas, not snapshots — and monitoring views over
telemetry are themselves extracted views.  :class:`MetaObservatory`
dogfoods that claim: it snapshots ``sys.*`` tables into a small source
database, registers three monitoring views over them and maintains the
views **incrementally** through the very capture → log-store →
integrator machinery the telemetry describes:

``mon_backlog``
    Per-(source, table) capture/apply backlog from ``sys.watermarks``.
``mon_staleness``
    The staleness leaderboard: latest ``view.<name>.staleness_ms``
    sample per view from ``sys.series``.
``mon_slo_burn``
    Currently-significant SLO transitions: latest finding per
    (objective, entity) from ``sys.slo``, filtered to severity
    ``error`` by the view predicate.

A ``refresh()`` diffs the desired snapshot against the current base
rows and emits only the changed rows as INSERT/UPDATE/DELETE — the
delta, exactly as the paper prescribes — then drains the log store and
integrates.  Every maintenance plan comes from the
:class:`~repro.semantics.planner.ViewMaintenancePlanner` and is
verifier-certified by the integrator, like any application view.

**The meta-observation guard.**  The self-pipeline must not observe
itself: were its DML captured into the primary recorder, every refresh
would perturb the counts the monitoring views report, and the system
would never converge.  Refreshes therefore run inside
:func:`~repro.obs.pipeline.context.suppress_pipeline`, and the refresh
report carries a ``guard_ok`` bit proving the observed event log did
not grow.  The observatory also keeps its own clock, metrics registry
and null tracer, so maintaining the monitoring views costs the observed
pipeline zero virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ...clock import VirtualClock
from ...engine.database import Database
from ...engine.schema import Column, TableSchema
from ...engine.types import FLOAT, INTEGER, char
from ...errors import ObservabilityError
from ...plain import Record, plain
from ...semantics.checker import SchemaCatalog, SemanticChecker
from ...semantics.planner import PlanDrivenCapturePolicy, ViewMaintenancePlanner
from ...sql.ast_nodes import sql_literal
from ..metrics import MetricsRegistry
from ..pipeline import StateDigest, suppress_pipeline
from ..tracing import NULL_TRACER
from .catalog import SystemCatalog

Row = tuple[Any, ...]

# Keys are synthetic INTEGER ids (the delta-rule verifier's small-scope
# databases model numeric keys); the natural string key rides along in
# the ``entity`` column and the observatory owns the stable id mapping.
BACKLOG_SCHEMA = TableSchema(
    "obs_backlog",
    [
        Column("entity_id", INTEGER, nullable=False),
        Column("entity", char(48), nullable=False),
        Column("source", char(24), nullable=False),
        Column("table_name", char(24), nullable=False),
        Column("captured_ops", FLOAT, nullable=False),
        Column("applied_ops", FLOAT, nullable=False),
        Column("lag_ms", FLOAT, nullable=False),
    ],
    primary_key="entity_id",
)

STALENESS_SCHEMA = TableSchema(
    "obs_staleness",
    [
        Column("entity_id", INTEGER, nullable=False),
        Column("entity", char(64), nullable=False),
        Column("staleness_ms", FLOAT, nullable=False),
    ],
    primary_key="entity_id",
)

SLO_STATE_SCHEMA = TableSchema(
    "obs_slo",
    [
        Column("entity_id", INTEGER, nullable=False),
        Column("entity", char(48), nullable=False),
        Column("code", char(8), nullable=False),
        Column("severity", char(8), nullable=False),
        Column("short_burn", FLOAT, nullable=False),
        Column("long_burn", FLOAT, nullable=False),
    ],
    primary_key="entity_id",
)

_SCHEMAS = (BACKLOG_SCHEMA, STALENESS_SCHEMA, SLO_STATE_SCHEMA)


@dataclass
class TableDelta(Record):
    """Row-level changes one refresh shipped for one base table."""

    table: str
    inserted: int = 0
    updated: int = 0
    deleted: int = 0

    @property
    def total(self) -> int:
        return self.inserted + self.updated + self.deleted


@dataclass
class MetaRefreshReport:
    """Outcome of one incremental monitoring-view refresh."""

    deltas: list[TableDelta] = field(default_factory=list)
    ops_captured: int = 0
    ops_applied: int = 0
    #: The observed recorder's event total did not move during refresh —
    #: the meta-observation guard held.
    guard_ok: bool = True
    #: Every monitoring view digest-matches its SELECT run over the source.
    digests_ok: bool = True

    @property
    def rows_changed(self) -> int:
        return sum(delta.total for delta in self.deltas)

    def to_dict(self) -> dict[str, Any]:
        return {
            "deltas": plain(self.deltas),
            "rows_changed": self.rows_changed,
            "ops_captured": self.ops_captured,
            "ops_applied": self.ops_applied,
            "guard_ok": self.guard_ok,
            "digests_ok": self.digests_ok,
        }


def _view_definitions() -> list[Any]:
    from ...core.selfmaint import ViewDefinition

    return [
        ViewDefinition(
            name="mon_backlog",
            base_table="obs_backlog",
            columns=(
                "entity_id",
                "entity",
                "source",
                "captured_ops",
                "applied_ops",
                "lag_ms",
            ),
            predicate=None,
            key_column="entity_id",
            base_columns=BACKLOG_SCHEMA.column_names,
        ),
        ViewDefinition(
            name="mon_staleness",
            base_table="obs_staleness",
            columns=STALENESS_SCHEMA.column_names,
            predicate=None,
            key_column="entity_id",
            base_columns=STALENESS_SCHEMA.column_names,
        ),
        ViewDefinition(
            name="mon_slo_burn",
            base_table="obs_slo",
            columns=("entity_id", "entity", "code", "short_burn", "long_burn"),
            predicate="severity = 'error'",
            key_column="entity_id",
            base_columns=SLO_STATE_SCHEMA.column_names,
        ),
    ]


class MetaObservatory:
    """Monitoring views over ``sys.*``, maintained by the pipeline itself.

    Heavyweight collaborators (capture wrapper, log store, warehouse,
    integrator) are imported lazily in ``__init__`` so that importing
    :mod:`repro.obs.introspect` does not pull :mod:`repro.core` — the
    observatory is the one deliberate, documented place the obs layer
    drives core machinery, and it only does so when instantiated.
    """

    def __init__(self, catalog: SystemCatalog, verifier: Any = None) -> None:
        from ...analysis.analyzer import OpDeltaAnalyzer
        from ...core.capture import OpDeltaCapture
        from ...core.stores import FileLogStore
        from ...warehouse.opdelta_integrator import OpDeltaIntegrator
        from ...warehouse.warehouse import Warehouse

        self._catalog = catalog
        clock = VirtualClock()
        self._metrics = MetricsRegistry()
        self._source = Database(
            "meta-observatory",
            clock=clock,
            metrics=self._metrics,
            tracer=NULL_TRACER,
        )
        for schema in _SCHEMAS:
            self._source.create_table(schema)
        self._session = self._source.connect()
        self._store = FileLogStore(self._source)
        definitions = _view_definitions()
        # Stable synthetic ids: entity string -> entity_id, assigned on
        # first sight and reused for the row's whole lifetime (including
        # delete/re-insert), so deltas always address the same key.
        self._ids: dict[str, dict[str, int]] = {s.name: {} for s in _SCHEMAS}
        self._next_id: dict[str, int] = {s.name: 1 for s in _SCHEMAS}
        analyzer = OpDeltaAnalyzer(
            views=definitions,
            mirrored_tables={schema.name for schema in _SCHEMAS},
            key_columns={schema.name: "entity_id" for schema in _SCHEMAS},
            table_columns={
                schema.name: schema.column_names for schema in _SCHEMAS
            },
            metrics=self._metrics,
        )
        plans = ViewMaintenancePlanner(
            SchemaCatalog(_SCHEMAS)
        ).plan_catalog(views=definitions)
        self._capture = OpDeltaCapture(
            self._session,
            self._store,
            tables={schema.name for schema in _SCHEMAS},
            # The burn view's predicate makes UPDATEs on obs_slo need
            # before images — the paper's hybrid augmentation, decided
            # statically by the views' compiled plans.
            hybrid_policy=PlanDrivenCapturePolicy(plans),
            analyzer=analyzer,
            checker=SemanticChecker(SchemaCatalog.from_database(self._source)),
            source="meta-observatory",
        )
        self._capture.attach()
        self._warehouse = Warehouse("meta-warehouse", clock=clock)
        schema_by_table = {schema.name: schema for schema in _SCHEMAS}
        for schema in _SCHEMAS:
            self._warehouse.create_mirror(schema)
        self.views = [
            self._warehouse.define_view(
                definition, schema_by_table[definition.base_table]
            )
            for definition in definitions
        ]
        self._integrator = OpDeltaIntegrator(
            self._warehouse.database.internal_session(),
            views=self.views,
            analyzer=analyzer,
            plans=plans,
            # Callers needing hermetic runs (the forensics drill) pass a
            # verifier with a private certificate cache so every run pays
            # the same small-scope proofs; by default the integrator uses
            # the process-wide pay-once cache.
            verifier=verifier,
        )

    # --------------------------------------------------------------- desired
    # Each helper returns entity -> payload (the columns after entity_id
    # and entity); ids are attached by the diff step.
    def _desired_backlog(self) -> dict[str, Row]:
        result = self._catalog.query(
            "SELECT source, table_name, captured_ops, applied_ops, lag_ms "
            "FROM sys.watermarks WHERE table_name IS NOT NULL"
        )
        desired: dict[str, Row] = {}
        for source, table, captured, applied, lag_ms in result.rows:
            entity = f"{source}/{table}"[:48]
            desired[entity] = (
                source[:24],
                table[:24],
                float(captured),
                float(applied),
                float(lag_ms),
            )
        return desired

    def _desired_staleness(self) -> dict[str, Row]:
        result = self._catalog.query(
            "SELECT series, sample_index, value FROM sys.series "
            "WHERE series LIKE 'view.%' ORDER BY series ASC, sample_index ASC"
        )
        desired: dict[str, Row] = {}
        for series, _index, value in result.rows:
            if not series.endswith(".staleness_ms"):
                continue
            entity = series[len("view.") : -len(".staleness_ms")][:64]
            # Rows arrive in sample order: the last one per series wins.
            desired[entity] = (float(value),)
        return desired

    def _desired_slo(self) -> dict[str, Row]:
        result = self._catalog.query(
            "SELECT objective, entity, code, severity, short_burn, long_burn, "
            "at_ms FROM sys.slo ORDER BY at_ms ASC"
        )
        desired: dict[str, Row] = {}
        for objective, entity, code, severity, short_burn, long_burn, _at in (
            result.rows
        ):
            key = f"{objective}/{entity}"[:48]
            # History is chronological: the latest transition per
            # objective/entity is that alert's current state.
            desired[key] = (code, severity, float(short_burn), float(long_burn))
        return desired

    # --------------------------------------------------------------- refresh
    def refresh(self) -> MetaRefreshReport:
        """Ship the delta between the live snapshot and the base tables.

        Runs entirely under the meta-observation guard; raises
        :class:`~repro.errors.ObservabilityError` if the guard is
        breached (the observed event log grew during refresh).
        """
        observed = self._catalog.bundle.recorder
        events_before = (
            sum(observed.log.counts.values()) if observed is not None else 0
        )
        desired_by_table = {
            BACKLOG_SCHEMA.name: self._desired_backlog(),
            STALENESS_SCHEMA.name: self._desired_staleness(),
            SLO_STATE_SCHEMA.name: self._desired_slo(),
        }
        report = MetaRefreshReport()
        with suppress_pipeline():
            statements: list[str] = []
            for schema in _SCHEMAS:
                delta, sql = self._plan_delta(schema, desired_by_table[schema.name])
                report.deltas.append(delta)
                statements.extend(sql)
            if statements:
                self._session.begin()
                for statement in statements:
                    self._session.execute(statement)
                self._session.commit()
            groups = self._store.drain()
            report.ops_captured = sum(len(g.operations) for g in groups)
            if groups:
                integration = self._integrator.integrate(groups)
                report.ops_applied = integration.statements_issued
        events_after = (
            sum(observed.log.counts.values()) if observed is not None else 0
        )
        report.guard_ok = events_after == events_before
        if not report.guard_ok:
            raise ObservabilityError(
                "meta-observation guard breached: the self-pipeline recorded "
                f"{events_after - events_before} lifecycle event(s) into the "
                "recorder it observes"
            )
        report.digests_ok = self.digests_equal()
        return report

    def _entity_id(self, table: str, entity: str) -> int:
        ids = self._ids[table]
        found = ids.get(entity)
        if found is None:
            found = self._next_id[table]
            self._next_id[table] += 1
            ids[entity] = found
        return found

    def _plan_delta(
        self, schema: TableSchema, desired: Mapping[str, Row]
    ) -> tuple[TableDelta, list[str]]:
        """Diff desired vs current rows into the minimal DML delta."""
        table = self._source.table(schema.name)
        # Current rows keyed by the natural entity string (column 1).
        current: dict[str, Row] = {
            values[1]: tuple(values) for values in table.scan_values()
        }
        delta = TableDelta(table=schema.name)
        statements: list[str] = []
        for entity in sorted(set(desired) - set(current)):
            row = (self._entity_id(schema.name, entity), entity, *desired[entity])
            values = ", ".join(sql_literal(v) for v in row)
            statements.append(f"INSERT INTO {schema.name} VALUES ({values})")
            delta.inserted += 1
        for entity in sorted(set(desired) & set(current)):
            payload = desired[entity]
            if payload == current[entity][2:]:
                continue
            assignments = ", ".join(
                f"{column} = {sql_literal(value)}"
                for column, value in zip(schema.column_names[2:], payload)
                if value != current[entity][schema.column_index(column)]
            )
            statements.append(
                f"UPDATE {schema.name} SET {assignments} "
                f"WHERE entity_id = {current[entity][0]}"
            )
            delta.updated += 1
        for entity in sorted(set(current) - set(desired)):
            statements.append(
                f"DELETE FROM {schema.name} "
                f"WHERE entity_id = {current[entity][0]}"
            )
            delta.deleted += 1
        return delta, statements

    # ---------------------------------------------------------------- checks
    def digests_equal(self) -> bool:
        """Every view digest-matches its SELECT run over its base table."""
        return not self.digest_mismatches()

    def digest_mismatches(self) -> list[str]:
        """Names of monitoring views whose incremental state has drifted."""
        from ...warehouse.views import contents

        mismatched = []
        for view in self.views:
            base_rows = list(
                self._source.table(view.definition.base_table).scan_values()
            )
            incremental = StateDigest.from_rows(view.rows())
            recomputed = StateDigest.from_rows(
                contents(view.definition, [(view.base_schema, base_rows)])
            )
            if incremental.value != recomputed.value:
                mismatched.append(view.definition.name)
        return mismatched

    def close(self) -> None:
        self._capture.detach()
