"""The SQL-queryable system catalog (repro.obs.introspect)."""

import pytest

from repro.bench import introspect as bench_introspect
from repro.clock import VirtualClock
from repro.engine import Database
from repro.engine.table import InsertMode
from repro.engine.types import FLOAT, INTEGER
from repro.errors import ObservabilityError, SemanticError
from repro.obs.flight import SLOEngine, TimeSeriesStore
from repro.obs.flight.attribution import CostAttributor
from repro.obs.flight.slo import FreshnessSLO
from repro.obs.introspect import (
    PROCESS_TABLES,
    SYS_TABLES,
    MetaObservatory,
    StoreBundle,
    SysTable,
    SystemCatalog,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.pipeline import PipelineRecorder
from repro.obs.tracing import Tracer
from repro.semantics.checker import SemanticChecker
from repro.sql.executor import Executor

from .test_introspect_forensics import FakeGroup, FakeOp, two_round_recorder

ALL_TABLES = (
    "sys.events",
    "sys.metrics",
    "sys.watermarks",
    "sys.lag",
    "sys.series",
    "sys.cost",
    "sys.slo",
    "sys.critical_path",
)


def populated_bundle() -> StoreBundle:
    metrics = MetricsRegistry()
    metrics.counter("engine.txn.commits").inc(3)
    metrics.gauge("transport.queue.depth").set(7)
    metrics.histogram("warehouse.apply.batch_ms").observe(5.0)
    metrics.histogram("warehouse.apply.batch_ms").observe(9.0)
    store = TimeSeriesStore()
    series = store.series("queue.forensics.depth")
    series.record(1.0, 4.0)
    series.record(2.0, 6.0)
    tracer = Tracer()
    with tracer.span("warehouse.apply", clock=VirtualClock(), table="parts"):
        pass
    engine = SLOEngine(store, [FreshnessSLO("v", target_ms=10.0)])
    engine.evaluate(3.0)  # no staleness samples yet: one SLO005 finding
    return StoreBundle(
        recorder=two_round_recorder(),
        metrics=metrics,
        series=store,
        ledger=CostAttributor().attribute(tracer),
        slo=engine,
    )


class TestReadOnly:
    def test_dml_and_ddl_are_refused(self):
        catalog = SystemCatalog(StoreBundle())
        for sql in (
            "INSERT INTO parts (part_id) VALUES (1)",
            "UPDATE parts SET quantity = 0",
            "DELETE FROM parts",
            "CREATE TABLE scratch (a INTEGER)",
        ):
            with pytest.raises(ObservabilityError, match="read-only"):
                catalog.query(sql)

    def test_unknown_column_gets_a_positioned_diagnostic(self):
        catalog = SystemCatalog(StoreBundle())
        with pytest.raises(SemanticError, match="SEM002"):
            catalog.query("SELECT bogus FROM sys.events")

    def test_unknown_table_is_a_semantic_error(self):
        with pytest.raises(SemanticError):
            SystemCatalog(StoreBundle()).query("SELECT 1 FROM sys.nonsense")


class TestEmptyBundle:
    def test_every_table_answers_count_star_with_zero(self):
        catalog = SystemCatalog(StoreBundle())
        # The bundle's tables, then the ones that read the process.
        assert catalog.table_names == ALL_TABLES + tuple(sorted(PROCESS_TABLES))
        for name in ALL_TABLES:
            assert catalog.query(f"SELECT COUNT(*) FROM {name}").scalar() == 0

    def test_constant_select_needs_no_table(self):
        assert SystemCatalog(StoreBundle()).query("SELECT 1 + 2").scalar() == 3


class TestAdapters:
    def test_events_reflect_the_lifecycle_log(self):
        catalog = SystemCatalog(populated_bundle())
        result = catalog.query(
            "SELECT kind, COUNT(*) FROM sys.events GROUP BY kind ORDER BY kind ASC"
        )
        assert dict(result.rows) == {
            "acked": 2,
            "applied": 3,
            "captured": 3,
            "checked": 3,
            "enqueued": 3,
        }

    def test_metrics_render_counters_gauges_and_histogram_counts(self):
        catalog = SystemCatalog(populated_bundle())
        rows = catalog.query("SELECT name, kind, value FROM sys.metrics").rows
        by_name = {name: (kind, value) for name, kind, value in rows}
        assert by_name["engine.txn.commits"] == ("counter", 3.0)
        assert by_name["transport.queue.depth"] == ("gauge", 7.0)
        # Histograms expose their observation count as the scalar.
        assert by_name["warehouse.apply.batch_ms"] == ("histogram", 2.0)

    def test_watermarks_carry_source_and_table_rows(self):
        catalog = SystemCatalog(populated_bundle())
        source_rows = catalog.query(
            "SELECT source, captured, settled FROM sys.watermarks "
            "WHERE table_name IS NULL"
        ).rows
        assert source_rows == [("src", 3, 3)]
        table_rows = catalog.query(
            "SELECT table_name, captured_ops, applied_ops FROM sys.watermarks "
            "WHERE table_name IS NOT NULL"
        ).rows
        assert table_rows == [("parts", 3, 3)]

    def test_series_sample_index_is_the_global_ordinal(self):
        catalog = SystemCatalog(populated_bundle())
        rows = catalog.query(
            "SELECT sample_index, value FROM sys.series "
            "WHERE series = 'queue.forensics.depth' ORDER BY sample_index ASC"
        ).rows
        assert rows == [(0, 4.0), (1, 6.0)]

    def test_evicted_ring_samples_surface_as_an_index_gap(self):
        from repro.obs.flight.series import DEFAULT_CAPACITY, TimeSeriesStore

        store = TimeSeriesStore()
        ring = store.series("queue.tiny.depth")
        for step in range(DEFAULT_CAPACITY + 3):
            ring.record(float(step), float(step * 10))
        catalog = SystemCatalog(StoreBundle(series=store))
        rows = catalog.query(
            "SELECT sample_index, value FROM sys.series "
            "WHERE sample_index < 5 ORDER BY sample_index ASC"
        ).rows
        # Three more recorded than retained: ordinals from 3, gap from zero.
        assert rows == [(3, 30.0), (4, 40.0)]

    def test_cost_rows_come_from_the_ledger(self):
        catalog = SystemCatalog(populated_bundle())
        rows = catalog.query("SELECT stage, entity, spans FROM sys.cost").rows
        assert ("apply", "parts", 1) in rows

    def test_critical_path_is_queryable_and_joins_to_events(self):
        catalog = SystemCatalog(populated_bundle())
        stages = catalog.query(
            "SELECT correlation_id, critical_stage FROM sys.critical_path "
            "ORDER BY correlation_id ASC"
        ).rows
        assert [stage for _id, stage in stages] == ["queue", "queue", "queue"]
        joined = catalog.query(
            "SELECT COUNT(*) FROM sys.critical_path cp "
            "JOIN sys.events e ON cp.correlation_id = e.correlation_id "
            "WHERE e.kind = 'applied'"
        ).scalar()
        assert joined == 3  # one APPLIED event per applied op

    def test_half_open_window_keeps_in_flight_visible(self):
        recorder = PipelineRecorder()
        ops = [FakeOp(seq, float(seq)) for seq in (1, 2)]
        for op in ops:
            recorder.record_captured(op, "src", op.captured_at)
        recorder.record_enqueued(FakeGroup(tuple(ops)), 5.0)
        recorder.record_applied(ops[0], 9.0)
        catalog = SystemCatalog(StoreBundle(recorder=recorder))
        assert catalog.query("SELECT COUNT(*) FROM sys.critical_path").scalar() == 1
        in_flight = catalog.query(
            "SELECT in_flight FROM sys.watermarks WHERE table_name IS NULL"
        ).scalar()
        assert in_flight == 1
        assert recorder.conservation()["in_flight"] == 1


class TestIsolation:
    def test_queries_cost_the_observed_pipeline_nothing(self):
        clock = VirtualClock()
        recorder = PipelineRecorder(clock=clock)
        op = FakeOp(1, 0.0)
        recorder.record_captured(op, "src", 0.0)
        recorder.record_applied(op, 4.0)
        before = clock.now
        catalog = SystemCatalog(StoreBundle(recorder=recorder))
        for name in catalog.table_names:
            catalog.query(f"SELECT COUNT(*) FROM {name}")
        catalog.query(
            "SELECT kind, COUNT(*) FROM sys.events GROUP BY kind"
        )
        assert clock.now == before

    def test_snapshots_are_independent_per_query(self):
        bundle = populated_bundle()
        catalog = SystemCatalog(bundle)
        first = catalog.query("SELECT COUNT(*) FROM sys.events").scalar()
        extra = FakeOp(9, 100.0)
        bundle.recorder.record_captured(extra, "src", 100.0)
        second = catalog.query("SELECT COUNT(*) FROM sys.events").scalar()
        assert second == first + 1

    def test_a_self_join_reads_the_store_once(self, monkeypatch):
        events = SYS_TABLES["sys.events"]
        calls = []

        def counted(bundle):
            calls.append(bundle)
            return events.rows(bundle)

        monkeypatch.setitem(
            SYS_TABLES, "sys.events", SysTable(events.schema, counted)
        )
        catalog = SystemCatalog(populated_bundle())
        pairs = catalog.query(
            "SELECT COUNT(*) FROM sys.events a "
            "JOIN sys.events b ON a.correlation_id = b.correlation_id"
        ).scalar()
        assert pairs > 0
        assert len(calls) == 1
        catalog.query("SELECT COUNT(*) FROM sys.events")
        assert len(calls) == 2  # the next query reads the store again


#: Per table: a text column to group by, a column to test for NULL and a
#: column to order by.
PARITY_COLUMNS = {
    "sys.events": ("kind", "lane", "at_ms"),
    "sys.metrics": ("kind", "value", "name"),
    "sys.watermarks": ("source", "table_name", "captured_ops"),
    "sys.lag": ("stage", "value_ms", "value_ms"),
    "sys.series": ("series", "value", "sample_index"),
    "sys.cost": ("stage", "entity", "self_ns"),
    "sys.slo": ("state", "message", "at_ms"),
    "sys.critical_path": ("critical_stage", "views", "end_to_end_ms"),
}

PARITY_QUERIES = [
    sql.format(table=table, group=group, nullable=nullable, order=order)
    for table, (group, nullable, order) in PARITY_COLUMNS.items()
    for sql in (
        "SELECT * FROM {table}",
        "SELECT COUNT(*) FROM {table}",
        "SELECT {group}, COUNT(*) FROM {table} GROUP BY {group}",
        "SELECT * FROM {table} WHERE {nullable} IS NULL",
        "SELECT {order}, {group} FROM {table} ORDER BY {order} DESC LIMIT 2",
    )
] + [
    "SELECT e.kind, cp.critical_stage, cp.queue_ms FROM sys.critical_path cp "
    "JOIN sys.events e ON cp.correlation_id = e.correlation_id "
    "WHERE e.kind = 'applied'",
]


class TestEngineParity:
    """The route this catalog used to take — copy the adapters' rows into
    real engine tables, then query those — kept here as the reference."""

    @pytest.fixture(scope="class")
    def routes(self):
        bundle = populated_bundle()
        database = Database("sys")
        for sys_table in SYS_TABLES.values():
            if sys_table.name in PROCESS_TABLES:
                continue  # not the bundle's: nothing to compare a copy with
            table = database.create_table(sys_table.schema)
            txn = database.begin()
            table.insert_many(
                txn, sys_table.rows(bundle), mode=InsertMode.BULK_INTERNAL
            )
            database.commit(txn)
        return SystemCatalog(bundle), database

    @pytest.mark.parametrize("sql", PARITY_QUERIES)
    def test_same_columns_rows_and_plan_as_the_engine_route(self, routes, sql):
        catalog, database = routes
        served = catalog.query(sql)
        checked = SemanticChecker(catalog.schema_catalog()).check_sql(sql).statement
        txn = database.begin()
        try:
            copied = Executor(database).execute(checked, txn)
        finally:
            database.commit(txn)
        assert served.columns == copied.columns
        assert served.rows == copied.rows
        assert served.plan == copied.plan

    def test_the_matrix_is_not_vacuous(self, routes):
        catalog, _database = routes
        for table in PARITY_COLUMNS:
            assert catalog.query(f"SELECT COUNT(*) FROM {table}").scalar() > 0
        nulls = catalog.query(
            "SELECT COUNT(*) FROM sys.watermarks WHERE table_name IS NULL"
        ).scalar()
        assert nulls > 0


def drill_bundle(monkeypatch) -> StoreBundle:
    """The stores of one ``--forensics`` drill run."""
    catalogs = []

    class Spy(SystemCatalog):
        def __init__(self, bundle):
            super().__init__(bundle)
            catalogs.append(self)

    monkeypatch.setattr(bench_introspect, "SystemCatalog", Spy)
    bench_introspect.run_forensics()
    return catalogs[0].bundle


class TestTypeFidelity:
    """No record codec coerces a served value, so each adapter must yield
    exactly its column's Python type."""

    @staticmethod
    def violations(bundle):
        found = []
        for name, sys_table in SYS_TABLES.items():
            rows = sys_table.rows(bundle)
            assert rows, f"{name} is empty: nothing checked"
            for row in rows:
                assert len(row) == len(sys_table.schema.columns)
                for column, value in zip(sys_table.schema.columns, row):
                    if value is None:
                        if not column.nullable:
                            found.append((name, column.name, value))
                        continue
                    expected = (
                        str if column.datatype.is_text
                        else {INTEGER: int, FLOAT: float}[column.datatype]
                    )
                    if type(value) is not expected:
                        found.append((name, column.name, value))
        return found

    def test_populated_bundle(self):
        assert self.violations(populated_bundle()) == []

    def test_forensics_drill(self, monkeypatch):
        assert self.violations(drill_bundle(monkeypatch)) == []


class TestClipping:
    """Nothing is: a value comes back as the store holds it."""

    @staticmethod
    def rejected_detail(reason):
        recorder = PipelineRecorder()
        op = FakeOp(1, 0.0)
        recorder.record_captured(op, "src", 0.0)
        recorder.record_rejected_op(op, 1.0, reason)
        catalog = SystemCatalog(StoreBundle(recorder=recorder))
        return catalog.query(
            "SELECT detail FROM sys.events WHERE kind = 'rejected'"
        ).scalar()

    def test_oversize_event_detail_still_materialises(self):
        reason = "reason " * 40
        assert self.rejected_detail(reason) == reason  # all 280 characters

    def test_event_detail_keeps_its_own_characters(self):
        assert self.rejected_detail("part → café") == "part → café"

    def test_the_observatory_cuts_names_to_its_own_columns(self):
        """The catalog serves names whole; the monitoring tables are real
        CHAR(24) engine columns, so the cut happens where they are stored."""
        source = "a-source-name-longer-than-twenty-four-characters"
        op = FakeOp(1, 0.0, table="a_table_name_longer_than_twenty_four_chars")
        recorder = PipelineRecorder()
        recorder.record_captured(op, source, 0.0)
        recorder.record_applied(op, 4.0)
        catalog = SystemCatalog(StoreBundle(recorder=recorder))
        assert catalog.query(
            "SELECT source, table_name FROM sys.watermarks "
            "WHERE table_name IS NOT NULL"
        ).rows == [(source, op.table)]
        observatory = MetaObservatory(catalog)
        try:
            assert observatory.refresh().rows_changed == 1
            assert observatory.refresh().rows_changed == 0
            (backlog,) = observatory.views[0].rows()
            assert backlog[1:3] == (f"{source}/{op.table}"[:48], source[:24])
        finally:
            observatory.close()


class TestTemplatesTable:
    """``sys.templates``: the statement template table, read like any other."""

    def test_one_row_per_shape_with_its_counts(self):
        from repro.sql.parser import TEMPLATES, parse

        TEMPLATES.clear()
        for key in (3, 41, 41, 5_000):
            parse(f"UPDATE sys_templates_probe SET c = 'x' WHERE k = {key}")
        parse("DELETE FROM sys_templates_probe WHERE k = 7")
        rows = SystemCatalog(StoreBundle()).query(
            "SELECT shape, kind, table_name, hits, binds, builds "
            "FROM sys.templates WHERE table_name = 'sys_templates_probe' "
            "ORDER BY kind DESC"
        ).rows
        assert rows == [
            (
                "UPDATE sys_templates_probe SET c = STRING WHERE k = INTEGER",
                "UPDATE", "sys_templates_probe", 3, 4, 0,
            ),
            (
                "DELETE FROM sys_templates_probe WHERE k = INTEGER",
                "DELETE", "sys_templates_probe", 0, 1, 0,
            ),
        ]

    def test_reading_it_reports_no_host_time(self):
        columns = SYS_TABLES["sys.templates"].schema.column_names
        assert columns == (
            "shape", "kind", "table_name", "hits", "binds", "runs", "builds"
        )
