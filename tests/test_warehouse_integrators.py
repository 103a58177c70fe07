"""Tests for the value-delta and Op-Delta integrators."""

import dataclasses
import sys

import pytest

from repro.analysis import OpDeltaAnalyzer
from repro.analysis.certify import InterferenceSanitizer
from repro.analysis.safety import commutes
from repro.core import FileLogStore, OpDeltaCapture
from repro.core.opdelta import OpDelta, OpDeltaTransaction, OpKind
from repro.core.selfmaint import ViewDefinition
from repro.engine import Database
from repro.errors import SqlAnalysisError, WarehouseError
from repro.extraction import TriggerExtractor
from repro.extraction.deltas import ChangeKind, DeltaBatch, DeltaRecord
from repro.obs.pipeline import (
    LifecycleKind,
    PipelineAuditor,
    PipelineRecorder,
    StateDigest,
    observe_pipeline,
)
from repro.semantics import (
    PlanDrivenCapturePolicy,
    SchemaCatalog,
    ViewMaintenancePlanner,
)
from repro.sql.parser import parse
from repro.warehouse import OpDeltaIntegrator, ValueDeltaIntegrator, Warehouse
from repro.warehouse.aggregates import (
    AggregateSpec,
    AggregateViewDefinition,
    MaterializedAggregateView,
)
from repro.workloads import OltpWorkload, parts_schema, strip_timestamp


@pytest.fixture
def pipeline():
    source = Database("int-src")
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(300)
    store = FileLogStore(source)
    OpDeltaCapture(workload.session, store, tables={"parts"}).attach()
    triggers = TriggerExtractor(source, "parts")
    triggers.install()
    warehouse = Warehouse(clock=source.clock)
    warehouse.create_mirror(parts_schema())
    warehouse.initial_load_rows(
        "parts", (v for _r, v in source.table("parts").scan())
    )
    return source, workload, store, triggers, warehouse


def logical(database):
    return strip_timestamp(
        parts_schema(), (v for _r, v in database.table("parts").scan())
    )


def commits(database):
    return database.metrics.value("engine.txn.commit", db=database.name)


#: Projects neither ``quantity`` nor ``supplier_id``: an UPDATE of
#: ``quantity`` is irrelevant to it, but not to :data:`QTY_BY_SUPPLIER`.
ACTIVE_PARTS = ViewDefinition(
    name="active_parts",
    base_table="parts",
    columns=("part_id", "part_no", "status", "price"),
    predicate="status = 'active'",
    key_column="part_id",
)

QTY_BY_SUPPLIER = AggregateViewDefinition(
    "qty_by_supplier",
    "parts",
    group_by=("supplier_id",),
    aggregates=(AggregateSpec("COUNT"), AggregateSpec("SUM", "quantity")),
)


def define_views(warehouse):
    """Both views over the loaded ``parts`` mirror, initialised from it."""
    schema = parts_schema()
    rows = [v for _r, v in warehouse.database.table("parts").scan()]
    spj = warehouse.define_view(ACTIVE_PARTS, schema)
    agg = MaterializedAggregateView(warehouse.database, QTY_BY_SUPPLIER, schema)
    txn = warehouse.database.begin()
    spj.initialize(rows, txn)
    agg.initialize(rows, txn)
    warehouse.database.commit(txn)
    return spj, agg


class TestValueDeltaIntegrator:
    def test_batch_converges_mirror(self, pipeline):
        source, workload, _store, triggers, warehouse = pipeline
        workload.run_update(30)
        workload.run_update(10, assignment="status = 'active'")
        workload.run_update(20, assignment="quantity = quantity + 5")
        workload.run_insert(10)
        workload.run_delete(15, top_up=False)
        batch = triggers.drain_to_batch()
        integrator = ValueDeltaIntegrator(warehouse.database.internal_session())
        report = integrator.integrate(batch)
        assert report.mode == "value-delta"
        assert logical(warehouse.database) == logical(source)

    def test_indivisible_batch_is_one_txn(self, pipeline):
        source, workload, _store, triggers, warehouse = pipeline
        workload.run_update(5)
        workload.run_update(5)
        batch = triggers.drain_to_batch()
        integrator = ValueDeltaIntegrator(warehouse.database.internal_session())
        commits_before = commits(warehouse.database)
        integrator.integrate(batch)
        assert commits(warehouse.database) == commits_before + 1

    def test_statement_blowup_for_updates(self, pipeline):
        """x-row update -> x deletes + x inserts (§4.1)."""
        _source, workload, _store, triggers, warehouse = pipeline
        workload.run_update(20)
        batch = triggers.drain_to_batch()
        integrator = ValueDeltaIntegrator(warehouse.database.internal_session())
        report = integrator.integrate(batch)
        assert report.statements_issued == 40

    def test_insert_run_collapses_to_one_statement(self, pipeline):
        _source, workload, _store, triggers, warehouse = pipeline
        workload.run_insert(20)
        batch = triggers.drain_to_batch()
        integrator = ValueDeltaIntegrator(warehouse.database.internal_session())
        report = integrator.integrate(batch)
        assert report.statements_issued == 1

    def test_requires_primary_key(self, pipeline):
        _source, _workload, _store, _triggers, warehouse = pipeline
        from repro.engine.schema import TableSchema

        schema = parts_schema()
        no_pk = TableSchema("parts", schema.columns, primary_key=None)
        batch = DeltaBatch("parts", no_pk)
        integrator = ValueDeltaIntegrator(warehouse.database.internal_session())
        batch.append(
            DeltaRecord(ChangeKind.DELETE, 1, before=(1,) * len(schema.columns))
        )
        with pytest.raises(WarehouseError, match="primary key"):
            integrator.integrate(batch)

    def test_upsert_batch_from_timestamp_extraction(self, pipeline):
        source, workload, _store, _triggers, warehouse = pipeline
        from repro.extraction import TimestampExtractor

        cutoff = source.clock.timestamp()
        workload.run_update(10)
        batch = TimestampExtractor(source, "parts").extract_deltas(cutoff)
        integrator = ValueDeltaIntegrator(warehouse.database.internal_session())
        integrator.integrate(batch)
        assert logical(warehouse.database) == logical(source)


    # A record whose before image addresses no mirror row means the mirror
    # is not the state the delta was extracted against.  The view path has
    # always refused that ("view state diverged"); the mirror used to skip a
    # DELETE and to *insert* the after image of an UPDATE.
    ABSENT = 9_999_999

    def _absent_row(self, warehouse, **changes):
        template = next(iter(warehouse.database.table("parts").scan_values()))
        row = (self.ABSENT, self.ABSENT) + template[2:]
        return row[:5] + (changes.get("quantity", row[5]),) + row[6:]

    def test_delete_record_for_a_missing_row_is_refused(self, pipeline):
        _source, _workload, _store, _triggers, warehouse = pipeline
        before = self._absent_row(warehouse)
        batch = DeltaBatch("parts", parts_schema())
        present = next(iter(warehouse.database.table("parts").scan_values()))
        batch.append(DeltaRecord(ChangeKind.DELETE, present[0], before=present))
        batch.append(DeltaRecord(ChangeKind.DELETE, self.ABSENT, before=before))
        mirror = logical(warehouse.database)
        integrator = ValueDeltaIntegrator(warehouse.database.internal_session())
        with pytest.raises(WarehouseError, match="found no row to delete"):
            integrator.integrate(batch)
        # The whole batch rolled back, the DELETE that did find its row too.
        assert logical(warehouse.database) == mirror

    def test_update_record_for_a_missing_row_is_refused(self, pipeline):
        _source, _workload, _store, _triggers, warehouse = pipeline
        before = self._absent_row(warehouse)
        after = self._absent_row(warehouse, quantity=7)
        batch = DeltaBatch("parts", parts_schema())
        batch.append(
            DeltaRecord(ChangeKind.UPDATE, self.ABSENT, before=before, after=after)
        )
        mirror = logical(warehouse.database)
        integrator = ValueDeltaIntegrator(warehouse.database.internal_session())
        with pytest.raises(WarehouseError, match="mirror state diverged"):
            integrator.integrate(batch)
        assert logical(warehouse.database) == mirror  # no phantom row

    def test_upsert_of_an_absent_row_still_applies(self, pipeline):
        """UPSERT's provenance is unknown by definition: nothing to find."""
        _source, _workload, _store, _triggers, warehouse = pipeline
        after = self._absent_row(warehouse, quantity=7)
        batch = DeltaBatch("parts", parts_schema())
        batch.append(DeltaRecord(ChangeKind.UPSERT, self.ABSENT, after=after))
        integrator = ValueDeltaIntegrator(warehouse.database.internal_session())
        report = integrator.integrate(batch)
        assert (report.statements_issued, report.rows_affected) == (2, 1)
        assert after in set(warehouse.database.table("parts").scan_values())


class TestOpDeltaIntegrator:
    def test_converges_and_preserves_boundaries(self, pipeline):
        source, workload, store, _triggers, warehouse = pipeline
        workload.run_update(10)
        workload.run_insert(5)
        groups = store.drain()
        integrator = OpDeltaIntegrator(warehouse.database.internal_session())
        commits_before = commits(warehouse.database)
        report = integrator.integrate(groups)
        assert report.transactions == 2
        assert commits(warehouse.database) == commits_before + 2
        assert logical(warehouse.database) == logical(source)

    def test_per_transaction_timings_recorded(self, pipeline):
        _source, workload, store, _triggers, warehouse = pipeline
        workload.run_update(10)
        workload.run_update(250)
        integrator = OpDeltaIntegrator(warehouse.database.internal_session())
        report = integrator.integrate(store.drain())
        small, large = report.per_transaction_ms
        assert large > small

    def test_update_cheaper_than_value_delta(self, pipeline):
        source, workload, store, triggers, warehouse = pipeline
        workload.run_update(250)
        batch = triggers.drain_to_batch()
        groups = store.drain()

        value_wh = Warehouse("twin", clock=source.clock)
        value_wh.create_mirror(parts_schema())
        value_wh.initial_load_rows(
            "parts", (v for _r, v in warehouse.database.table("parts").scan())
        )
        value_report = ValueDeltaIntegrator(
            value_wh.database.internal_session()
        ).integrate(batch)
        op_report = OpDeltaIntegrator(
            warehouse.database.internal_session()
        ).integrate(groups)
        assert op_report.elapsed_ms < value_report.elapsed_ms

    def test_analyzer_blind_to_a_maintained_view_is_refused(self, pipeline):
        """An analyzer told of the SPJ view only would prune the quantity
        UPDATE the aggregate view needs — the mirror and the aggregate
        drifted from the source with no error.  Refused at construction."""
        _source, _workload, _store, _triggers, warehouse = pipeline
        spj, agg = define_views(warehouse)
        session = warehouse.database.internal_session()
        with pytest.raises(WarehouseError, match="qty_by_supplier"):
            OpDeltaIntegrator(
                session,
                views=[spj],
                aggregate_views=[agg],
                analyzer=OpDeltaAnalyzer(views=[ACTIVE_PARTS]),
            )
        # Naming the aggregate view, or mirroring its base table, is what
        # it takes.
        for analyzer in (
            OpDeltaAnalyzer(
                views=[ACTIVE_PARTS], aggregate_views=[QTY_BY_SUPPLIER]
            ),
            OpDeltaAnalyzer(views=[ACTIVE_PARTS], mirrored_tables={"parts"}),
        ):
            OpDeltaIntegrator(
                session, views=[spj], aggregate_views=[agg], analyzer=analyzer
            )

    def test_an_spj_view_known_only_as_a_mirrored_table_is_refused(
        self, pipeline
    ):
        """Relevance keeps every statement on a mirrored table, but the
        analyzer's conflict graph learns which DELETEs a view replays from
        its views alone: one it only knows as a mirrored table it cannot
        keep apart.  Refused, and by definition, not by name."""
        _source, _workload, _store, _triggers, warehouse = pipeline
        spj, _agg = define_views(warehouse)
        session = warehouse.database.internal_session()
        narrower_twin = dataclasses.replace(ACTIVE_PARTS, columns=("part_id",))
        for blind in (
            OpDeltaAnalyzer(views=[], mirrored_tables={"parts"}),
            OpDeltaAnalyzer(views=[narrower_twin], mirrored_tables={"parts"}),
        ):
            with pytest.raises(WarehouseError, match="active_parts"):
                OpDeltaIntegrator(session, views=[spj], analyzer=blind)
        OpDeltaIntegrator(
            session,
            views=[spj],
            analyzer=OpDeltaAnalyzer(
                views=[dataclasses.replace(ACTIVE_PARTS)],
                mirrored_tables={"parts"},
            ),
        )

    def test_analyzer_keeps_an_aggregated_input_only_when_told_of_the_view(
        self,
    ):
        bump = parse("UPDATE parts SET quantity = quantity + 100 WHERE part_ref < 10")
        blind = OpDeltaAnalyzer(views=[ACTIVE_PARTS])
        told = OpDeltaAnalyzer(
            views=[ACTIVE_PARTS], aggregate_views=[QTY_BY_SUPPLIER]
        )
        assert blind.analyze_statement(bump).pruned
        record = told.analyze_statement(bump)
        assert not record.pruned
        assert record.relevance.relevant_views == ("qty_by_supplier",)


# ---------------------------------------------------------------------------
# One apply pipeline, three configurations
# ---------------------------------------------------------------------------

ANALYZER = OpDeltaAnalyzer(
    mirrored_tables={"parts"},
    key_columns={"parts": "part_id"},
    table_columns={"parts": parts_schema().column_names},
)

CONFIGURATIONS = ("serial", "row-batched", "columnar")


def apply_window(integrator, groups, configuration):
    """Run one window through the integrator under a named configuration."""
    if configuration == "serial":
        return integrator.integrate(groups)
    return integrator.integrate_batched(
        groups, columnar=configuration == "columnar"
    )


def op(txn_id, seq, sql, before_image=None):
    parsed = parse(sql)
    kind = {
        "InsertStmt": OpKind.INSERT,
        "UpdateStmt": OpKind.UPDATE,
        "DeleteStmt": OpKind.DELETE,
    }[type(parsed).__name__]
    return OpDelta(
        statement_text=sql,
        table=parsed.table,
        kind=kind,
        txn_id=txn_id,
        sequence=seq,
        captured_at=1000.0,
        before_image=before_image,
    )


#: Collides with the initially loaded row 0 at the warehouse.
POISON = (
    "INSERT INTO parts VALUES (0, 9, 'PN', 'd', 'new', 1, 1.0, NULL, 0)"
)


class TestOneApplyPipeline:
    """The behaviours the deleted ``OpDeltaApplier`` pinned, on ``integrate``."""

    def test_replay_converges_mirror(self, pipeline):
        source, workload, store, _triggers, warehouse = pipeline
        workload.run_update(20)
        workload.run_insert(5)
        workload.run_delete(10, top_up=False)
        report = OpDeltaIntegrator(
            warehouse.database.internal_session()
        ).integrate(store.drain())
        assert report.transactions == 3
        assert len(report.per_transaction_ms) == 3
        assert logical(warehouse.database) == logical(source)

    def test_one_source_txn_is_exactly_one_warehouse_commit(self, pipeline):
        _source, workload, store, _triggers, warehouse = pipeline
        session = workload.session
        session.execute("BEGIN")
        session.execute("UPDATE parts SET status = 'a' WHERE part_ref < 3")
        session.execute(
            "UPDATE parts SET status = 'b' WHERE part_ref >= 3 AND part_ref < 6"
        )
        session.execute("COMMIT")
        groups = store.drain()
        assert len(groups) == 1
        commits_before = commits(warehouse.database)
        report = OpDeltaIntegrator(
            warehouse.database.internal_session()
        ).integrate(groups)
        assert report.statements_issued == 2
        assert commits(warehouse.database) == commits_before + 1

    def test_empty_group_is_a_noop(self, pipeline):
        _source, _workload, _store, _triggers, warehouse = pipeline
        before = sorted(v for _r, v in warehouse.database.table("parts").scan())
        report = OpDeltaIntegrator(
            warehouse.database.internal_session()
        ).integrate([OpDeltaTransaction(1)])
        assert report.statements_issued == 0 and report.rows_affected == 0
        after = sorted(v for _r, v in warehouse.database.table("parts").scan())
        assert before == after

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    def test_failing_unit_rolls_back_and_raises_typed(
        self, pipeline, configuration
    ):
        _source, workload, store, _triggers, warehouse = pipeline
        workload.session.execute("BEGIN")
        workload.session.execute(
            "UPDATE parts SET status = 'ok' WHERE part_ref < 3"
        )
        workload.session.execute("COMMIT")
        [poisoned] = store.drain()
        poisoned.operations.append(op(poisoned.txn_id, 99, POISON))
        database = warehouse.database
        before = sorted(v for _r, v in database.table("parts").scan())
        commits_before = commits(database)
        integrator = OpDeltaIntegrator(
            database.internal_session(), analyzer=ANALYZER
        )
        with pytest.raises(WarehouseError, match="failed: "):
            apply_window(integrator, [poisoned], configuration)
        # Nothing partially applied, nothing committed, session reusable.
        assert before == sorted(v for _r, v in database.table("parts").scan())
        assert commits(database) == commits_before
        poisoned.operations.pop()
        report = apply_window(integrator, [poisoned], configuration)
        assert report.transactions == 1 and report.rows_affected == 3


    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    @pytest.mark.parametrize(
        "predicate",
        ["= 'abc'", "< 'abc'", "= NULL"],
        ids=["eq-string", "lt-string", "eq-null"],
    )
    @pytest.mark.parametrize(
        "statement",
        [
            "UPDATE parts SET status = 'hit' WHERE {column} {predicate}",
            "DELETE FROM parts WHERE {column} {predicate}",
        ],
        ids=["update", "delete"],
    )
    def test_literal_the_key_index_cannot_hold_is_typed_or_matches_nothing(
        self, pipeline, configuration, statement, predicate
    ):
        """Every configuration answers for the indexed key as for its
        unindexed twin: the evaluator's typed error with the unit rolled
        back, or (``= NULL``: UNKNOWN) no row — never the B-tree's
        ``TypeError``."""
        _source, _workload, _store, _triggers, warehouse = pipeline
        database = warehouse.database
        before = sorted(v for _r, v in database.table("parts").scan())
        integrator = OpDeltaIntegrator(
            database.internal_session(), analyzer=ANALYZER
        )

        def outcome(column):
            sql = statement.format(column=column, predicate=predicate)
            group = OpDeltaTransaction(txn_id=1, operations=[op(1, 0, sql)])
            try:
                report = apply_window(integrator, [group], configuration)
            except WarehouseError as error:
                assert isinstance(error.__cause__, SqlAnalysisError)
                return str(error.__cause__)
            return report.rows_affected

        expected = outcome("part_ref")
        assert outcome("part_id") == expected
        if predicate == "= NULL":
            assert expected == 0
        else:
            assert expected.startswith("cannot compare int with str using")
        assert before == sorted(v for _r, v in database.table("parts").scan())


class TestKeyAddressedColumnarApply:
    """A component's batch is the rows its statements reach, not the table.

    The columnar applier asks the executor's access-path chooser: an index
    path gathers just those rows, no path images the table once, and a
    resident image serves whatever follows it in the component.
    """

    ROWS = 300  # what the ``pipeline`` fixture loads
    FRESH = (
        "INSERT INTO parts VALUES (900001, 900001, 'PN', 'd', 'new', 1, 1.0, "
        "NULL, 0)"
    )

    @pytest.fixture
    def keyed(self, pipeline):
        """The mirror plus a full-width keyed view, columnar-maintained."""
        _source, _workload, _store, _triggers, warehouse = pipeline
        schema = parts_schema()
        definition = ViewDefinition(
            name="parts_catalog",
            base_table="parts",
            columns=schema.column_names,
            predicate=None,
            key_column="part_id",
            base_columns=schema.column_names,
        )
        database = warehouse.database
        view = warehouse.define_view(definition, schema)
        txn = database.begin()
        view.initialize([v for _r, v in database.table("parts").scan()], txn)
        database.commit(txn)
        integrator = OpDeltaIntegrator(
            database.internal_session(),
            views=[view],
            analyzer=OpDeltaAnalyzer(
                views=[definition],
                mirrored_tables={"parts"},
                key_columns={"parts": "part_id"},
                table_columns={"parts": schema.column_names},
            ),
            plans=ViewMaintenancePlanner(SchemaCatalog([schema])).plan_catalog(
                [definition]
            ),
        )
        return database, view, integrator

    @staticmethod
    def apply_component(database, integrator, *statements):
        """Apply one component columnar; (report, rows scanned, index probes)."""
        engine = database.metrics.labelled(db=database.name)
        scanned = engine.counter("engine.table.rows_scanned")
        probes = engine.counter("engine.index.probe")
        before = scanned.value, probes.value
        group = OpDeltaTransaction(
            txn_id=1,
            operations=[op(1, seq, sql) for seq, sql in enumerate(statements)],
        )
        report = integrator.integrate_batched([group], columnar=True)
        assert report.components == 1 and report.columnar_fallbacks == 0
        return report, scanned.value - before[0], probes.value - before[1]

    @staticmethod
    def row(table, part_id):
        [(_row_id, values)] = table.lookup("part_id", part_id)
        return values

    def test_point_component_scans_nothing(self, keyed):
        database, view, integrator = keyed
        mirror = database.table("parts")
        report, scanned, probes = self.apply_component(
            database,
            integrator,
            "UPDATE parts SET status = 'hit' WHERE part_id = 7",
            "DELETE FROM parts WHERE part_id = 9",
        )
        assert scanned == 0  # the parent imaged mirror and view: 2 x ROWS
        assert probes == 4  # one key probe per statement per table
        assert report.columnar_statements == 4 and report.rows_affected == 2
        for table in (mirror, view.table):
            assert self.row(table, 7)[4] == "hit"
            assert table.lookup("part_id", 9) == []
            assert table.num_rows == self.ROWS - 1

    def test_range_images_each_table_once_and_serves_what_follows(self, keyed):
        database, view, integrator = keyed
        quantity = self.row(database.table("parts"), 7)[5]
        _report, scanned, probes = self.apply_component(
            database,
            integrator,
            "UPDATE parts SET status = 'first' WHERE part_id = 7",
            "UPDATE parts SET quantity = quantity + 1 "
            "WHERE part_ref >= 5 AND part_ref < 10",
            "UPDATE parts SET status = 'second' WHERE part_id = 7",
        )
        assert scanned == 2 * self.ROWS  # mirror once, view once
        # Only the first point statement asked an index; the second was
        # served from the image the range statement left resident.
        assert probes == 2
        for table in (database.table("parts"), view.table):
            assert self.row(table, 7)[4:6] == ("second", quantity + 1)

    def test_point_update_reads_the_insert_before_it(self, keyed):
        database, view, integrator = keyed
        report, scanned, _probes = self.apply_component(
            database,
            integrator,
            self.FRESH,
            "UPDATE parts SET quantity = quantity + 41 WHERE part_id = 900001",
        )
        assert scanned == 0 and report.rows_affected == 2
        for table in (database.table("parts"), view.table):
            assert self.row(table, 900001)[5] == 42

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    def test_base_table_qualified_references_maintain_the_view_on_every_path(
        self, pipeline, keyed, configuration
    ):
        """The view's rewrite is one statement, whichever executor runs it."""
        source, workload, _store, _triggers, _warehouse = pipeline
        database, view, integrator = keyed
        statements = (
            "UPDATE parts SET quantity = 7 WHERE parts.quantity > 15",
            "DELETE FROM parts WHERE parts.part_id = 3",
            "UPDATE parts SET price = parts.price + 1 WHERE parts.part_id = 4",
        )
        for sql in statements:
            assert workload.session.execute(sql).rows_affected > 0
        group = OpDeltaTransaction(
            txn_id=1,
            operations=[op(1, seq, sql) for seq, sql in enumerate(statements)],
        )
        report = apply_window(integrator, [group], configuration)
        assert report.columnar_fallbacks == 0
        expected = logical(source)
        assert strip_timestamp(parts_schema(), view.rows()) == expected
        assert logical(database) == expected
        assert StateDigest.from_rows(
            strip_timestamp(parts_schema(), view.rows())
        ) == StateDigest.from_rows(expected)

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    def test_some_other_tables_qualifier_stays_a_typed_error(
        self, keyed, configuration
    ):
        database, view, integrator = keyed
        before = view.rows()
        group = OpDeltaTransaction(
            txn_id=1,
            operations=[
                op(1, 0, "UPDATE parts SET quantity = 7 WHERE suppliers.quantity > 15")
            ],
        )
        with pytest.raises(WarehouseError, match="unknown column") as raised:
            apply_window(integrator, [group], configuration)
        assert isinstance(raised.value.__cause__, SqlAnalysisError)
        assert "suppliers.quantity" in str(raised.value)
        assert view.rows() == before

    def test_secondary_index_equality_gathers_every_match(self, pipeline):
        _source, _workload, _store, _triggers, warehouse = pipeline
        database = warehouse.database
        mirror = database.table("parts")
        mirror.create_index("ix_parts_supplier", "supplier_id", kind="hash")
        supplied = [v[0] for _r, v in mirror.scan() if v[8] == 3]
        assert len(supplied) > 1
        report, scanned, probes = self.apply_component(
            database,
            OpDeltaIntegrator(database.internal_session(), analyzer=ANALYZER),
            "UPDATE parts SET status = 'sup3' WHERE supplier_id = 3",
        )
        assert (scanned, probes) == (0, 1)
        assert report.rows_affected == len(supplied)
        assert sorted(
            v[0] for _r, v in mirror.scan() if v[4] == "sup3"
        ) == sorted(supplied)


#: Needs before images for any UPDATE of ``quantity`` (membership may move).
PRICEY_PARTS = ViewDefinition(
    name="pricey_parts",
    base_table="parts",
    columns=("part_id", "status", "quantity", "price"),
    predicate="quantity > 500",
    key_column="part_id",
    base_columns=parts_schema().column_names,
)


class TestHybridAfterImagesReadTheStatementsOwnTable:
    """A hybrid op's after images are derived from its SET list, which may
    spell a column ``parts.price`` as the source allows."""

    @pytest.fixture
    def hybrid(self):
        schema = parts_schema()
        source = Database("hybrid-src")
        workload = OltpWorkload(source)
        workload.create_table()
        workload.populate(60)
        rows = list(source.table("parts").scan_values())
        analyzer = OpDeltaAnalyzer(
            views=[PRICEY_PARTS],
            mirrored_tables={"parts"},
            key_columns={"parts": "part_id"},
            table_columns={"parts": schema.column_names},
        )
        plans = ViewMaintenancePlanner(SchemaCatalog([schema])).plan_catalog(
            [PRICEY_PARTS]
        )
        store = FileLogStore(source)
        OpDeltaCapture(
            workload.session, store, tables={"parts"}, analyzer=analyzer,
            hybrid_policy=PlanDrivenCapturePolicy(plans),
        ).attach()
        return source, workload.session, store, rows, analyzer, plans

    @staticmethod
    def replay(hybrid, groups, configuration):
        """A fresh warehouse with the view, one window, one configuration."""
        source, _session, _store, rows, analyzer, plans = hybrid
        warehouse = Warehouse(f"hybrid-{configuration}", clock=source.clock)
        warehouse.create_mirror(parts_schema())
        warehouse.initial_load_rows("parts", rows)
        view = warehouse.define_view(PRICEY_PARTS, parts_schema())
        txn = warehouse.database.begin()
        view.initialize(rows, txn)
        warehouse.database.commit(txn)
        integrator = OpDeltaIntegrator(
            warehouse.database.internal_session(),
            views=[view], analyzer=analyzer, plans=plans,
        )
        return warehouse, view, lambda: apply_window(integrator, groups, configuration)

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    @pytest.mark.parametrize("table", ["", "parts."], ids=["bare", "qualified"])
    def test_a_hybrid_op_replays_as_the_source_ran_it(
        self, hybrid, table, configuration
    ):
        """Every path ends at the view recomputed from the source — the same
        rows and the same digest whichever path and spelling."""
        source, session, store, _rows, _analyzer, _plans = hybrid
        for sql in (
            f"UPDATE parts SET quantity = {table}quantity + 600, "
            f"price = {table}price + 1 WHERE part_id = 3",
            f"UPDATE parts SET quantity = {table}quantity - {table}quantity "
            "WHERE part_ref >= 10 AND part_ref < 14",
        ):
            assert session.execute(sql).rows_affected > 0
        groups = store.drain()
        assert all(op.before_image is not None for group in groups for op in group.operations)
        warehouse, view, apply = self.replay(hybrid, groups, configuration)
        apply()
        assert logical(warehouse.database) == logical(source)
        expected = view.recompute(source.table("parts").scan_values())
        assert view.rows() == expected
        assert StateDigest.from_rows(view.rows()) == StateDigest.from_rows(expected)

    @pytest.mark.parametrize("configuration", CONFIGURATIONS)
    def test_some_other_tables_qualifier_stays_a_typed_error(
        self, hybrid, configuration
    ):
        source, _session, _store, rows, _analyzer, _plans = hybrid
        [three] = [row for row in rows if row[0] == 3]
        group = OpDeltaTransaction(
            txn_id=1,
            operations=[
                op(
                    1, 0,
                    "UPDATE parts SET quantity = suppliers.quantity + 600 "
                    "WHERE part_id = 3",
                    before_image=[three],
                )
            ],
        )
        warehouse, view, apply = self.replay(hybrid, [group], configuration)
        before = view.rows(), logical(warehouse.database)
        with pytest.raises(WarehouseError, match="unknown column") as raised:
            apply()
        assert isinstance(raised.value.__cause__, SqlAnalysisError)
        assert "suppliers.quantity" in str(raised.value)
        assert (view.rows(), logical(warehouse.database)) == before


class TestRecordStage:
    """Lineage and sanitizer observations are emitted post-commit only."""

    def test_rolled_back_unit_leaves_no_lineage_and_retry_closes(
        self, pipeline
    ):
        _source, _workload, _store, _triggers, warehouse = pipeline
        analyzer = OpDeltaAnalyzer(mirrored_tables=("parts",))
        pruned = op(7, 0, "UPDATE audit_log SET note = 'x' WHERE event_id = 1")
        noop = op(
            7, 1, "DELETE FROM parts WHERE quantity < RANDOM()", before_image=[]
        )
        group = OpDeltaTransaction(
            txn_id=7, operations=[pruned, noop, op(7, 2, POISON)]
        )
        integrator = OpDeltaIntegrator(
            warehouse.database.internal_session(), analyzer=analyzer
        )
        recorder = PipelineRecorder(clock=warehouse.database.clock)
        with observe_pipeline(recorder):
            with pytest.raises(WarehouseError):
                integrator.integrate([group])
            # The unit never committed: no APPLIED/PRUNED event survives.
            assert recorder.log.total(LifecycleKind.APPLIED) == 0
            assert recorder.log.total(LifecycleKind.PRUNED) == 0
            group.operations[2] = op(
                7,
                2,
                "INSERT INTO parts VALUES (900001, 9, 'PN', 'd', 'new', 1, "
                "1.0, NULL, 0)",
            )
            report = integrator.integrate([group])
        assert report.statements_pruned == 1
        assert report.fallback_images_applied == 1
        assert recorder.log.total(LifecycleKind.PRUNED) == 1
        assert recorder.log.total(LifecycleKind.APPLIED) == 2
        for record in recorder.lineage.values():
            assert len(record.applied_at) <= 1
        audit = PipelineAuditor(recorder).audit()
        assert audit.verdict == "CLEAN"
        assert audit.conservation == {
            "captured": 3,
            "applied": 2,
            "pruned": 1,
            "absorbed": 0,
            "rejected": 0,
            "in_flight": 0,
        }
        # The no-op replay settles like any applied op of its transaction.
        assert recorder.lineage["txn7:op1"].committed_at == group.committed_at

    def test_serial_apply_is_observed_by_the_sanitizer(self, pipeline):
        _source, workload, store, _triggers, warehouse = pipeline
        workload.run_update(10)
        workload.run_insert(5)
        workload.run_delete(5, top_up=False)
        groups = store.drain()
        observed = []

        class RecordingSanitizer(InterferenceSanitizer):
            def observe(self, lane, op, at_ms):
                observed.append((lane, op))
                super().observe(lane, op, at_ms)

        sanitizer = RecordingSanitizer(2, ANALYZER.record())
        report = OpDeltaIntegrator(
            warehouse.database.internal_session(),
            analyzer=ANALYZER,
            sanitizer=sanitizer,
        ).integrate(groups)
        settled = [op for group in groups for op in group.operations]
        assert report.statements_issued == len(settled) > 0
        # Every settled op was observed, in apply order, on the one lane.
        assert [op for _lane, op in observed] == settled
        assert {lane for lane, _op in observed} == {0}
        assert sanitizer.clean


def commutes_calls(run):
    """``run()``, and the ``(a, b)`` footprint pairs ``commutes`` was asked
    about meanwhile — counted on its code object, as a profiler counts, so
    no call site can hide behind a name it imported."""
    code = commutes.__code__
    asked = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is code:
            asked.append((id(frame.f_locals["a"]), id(frame.f_locals["b"])))

    sys.setprofile(profile)
    try:
        return run(), asked
    finally:
        sys.setprofile(None)


class TestOneVerdictPerPair:
    """The conflict graph proves each op pair once; the pre-flight reads it."""

    STATEMENTS = (
        ("UPDATE parts SET status = 'a' WHERE part_id = 1",
         "UPDATE parts SET quantity = 5 WHERE part_id = 2"),
        ("UPDATE parts SET status = 'b' WHERE part_id = 3",),
        ("DELETE FROM parts WHERE part_id = 4",
         "UPDATE parts SET status = 'c' WHERE part_id = 1"),
        ("UPDATE parts SET price = 2.5 WHERE part_id = 5",),
    )

    @pytest.mark.parametrize("columnar", [False, True], ids=["row", "columnar"])
    def test_apply_after_the_graph_proves_nothing_again(self, pipeline, columnar):
        _source, workload, store, _triggers, warehouse = pipeline
        for statements in self.STATEMENTS:
            workload.session.execute("BEGIN")
            for sql in statements:
                workload.session.execute(sql)
            workload.session.execute("COMMIT")
        groups = store.drain()
        graph, by_graph = commutes_calls(lambda: ANALYZER.conflict_graph(groups))
        # Every cross-transaction pair up to each pair's first conflict, once.
        assert len(by_graph) == len(set(by_graph)) >= len(groups) - 1
        assert graph.edges == ((groups[0].txn_id, groups[2].txn_id),)
        integrator = OpDeltaIntegrator(
            warehouse.database.internal_session(), analyzer=ANALYZER
        )
        report, by_apply = commutes_calls(
            lambda: integrator.integrate_batched(groups, graph, columnar=columnar)
        )
        assert report.certificate_verdict == "CERTIFIED"
        assert by_apply == []
