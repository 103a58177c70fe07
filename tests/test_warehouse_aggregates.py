"""Tests for materialized aggregate views (incremental GROUP BY)."""

import pytest

from repro.core import AlwaysHybridPolicy, FileLogStore, OpDeltaCapture
from repro.engine import Database
from repro.errors import SelfMaintenanceError, SemanticError, WarehouseError
from repro.extraction import TriggerExtractor
from repro.semantics import TYPE_MISMATCH
from repro.warehouse import (
    AggregateSpec,
    AggregateViewDefinition,
    MaterializedAggregateView,
    Warehouse,
)
from repro.warehouse.views import contents
from repro.workloads import OltpWorkload, parts_schema

DEFINITION = AggregateViewDefinition(
    "parts_by_supplier",
    "parts",
    group_by=("supplier_id",),
    aggregates=(
        AggregateSpec("COUNT"),
        AggregateSpec("SUM", "quantity"),
        AggregateSpec("AVG", "price"),
    ),
)


def make_pipeline(definition=DEFINITION, rows=300):
    source = Database("agg-src")
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(rows)
    warehouse = Warehouse(clock=source.clock)
    view = MaterializedAggregateView(
        warehouse.database, definition, parts_schema()
    )
    txn = warehouse.database.begin()
    view.initialize((v for _r, v in source.table("parts").scan()), txn)
    warehouse.database.commit(txn)
    store = FileLogStore(source)
    OpDeltaCapture(
        workload.session, store, tables={"parts"},
        hybrid_policy=AlwaysHybridPolicy(),
    ).attach()
    triggers = TriggerExtractor(source, "parts")
    triggers.install()
    return source, workload, warehouse, view, store, triggers


def assert_matches_select(source, view, table="parts"):
    base = source.table(table)
    expected = contents(view.definition, [(base.schema, base.scan_values())])
    actual = view.groups()
    assert set(actual) == set(expected)
    for key, entry in expected.items():
        for label, value in entry.items():
            got = actual[key][label]
            if isinstance(value, float):
                assert got == pytest.approx(value), (key, label)
            else:
                assert got == value, (key, label)


class TestDefinitionValidation:
    def test_min_max_rejected_with_reason(self):
        with pytest.raises(SelfMaintenanceError, match="not self-maintainable"):
            AggregateSpec("MIN", "price")

    def test_sum_requires_argument(self):
        with pytest.raises(SelfMaintenanceError):
            AggregateSpec("SUM")

    def test_unknown_function(self):
        with pytest.raises(SelfMaintenanceError):
            AggregateSpec("MEDIAN", "price")

    def test_group_by_required(self):
        with pytest.raises(SelfMaintenanceError):
            AggregateViewDefinition(
                "v", "parts", group_by=(), aggregates=(AggregateSpec("COUNT"),)
            )

    def test_non_numeric_aggregate_column_rejected(self):
        definition = AggregateViewDefinition(
            "v", "parts", group_by=("supplier_id",),
            aggregates=(AggregateSpec("SUM", "status"),),
        )
        with pytest.raises(SemanticError, match="numeric") as caught:
            MaterializedAggregateView(Database("x"), definition, parts_schema())
        assert [d.code for d in caught.value.diagnostics] == [TYPE_MISMATCH]


class TestInitializeAndRead:
    def test_initial_state_matches_recompute(self):
        source, _w, _wh, view, _s, _t = make_pipeline()
        assert_matches_select(source, view)

    def test_group_count_totals(self):
        source, _w, _wh, view, _s, _t = make_pipeline()
        assert sum(entry["count"] for entry in view.groups().values()) == 300


class TestValueDeltaMaintenance:
    def test_inserts_deletes_updates(self):
        source, workload, warehouse, view, _store, triggers = make_pipeline()
        workload.run_insert(40)
        workload.run_update(30, assignment="quantity = quantity + 100")
        workload.run_delete(20, top_up=False)
        batch = triggers.drain_to_batch()
        txn = warehouse.database.begin()
        view.apply_value_delta(batch.records, txn)
        warehouse.database.commit(txn)
        assert_matches_select(source, view)

    def test_group_migration_on_update(self):
        """Updating the grouping column moves contributions between groups."""
        source, workload, warehouse, view, _store, triggers = make_pipeline()
        workload.run_update(25, assignment="supplier_id = 999")
        batch = triggers.drain_to_batch()
        txn = warehouse.database.begin()
        view.apply_value_delta(batch.records, txn)
        warehouse.database.commit(txn)
        assert_matches_select(source, view)
        assert view.groups()[(999,)]["count"] == 25

    def test_groups_vanish_at_zero(self):
        source, workload, warehouse, view, _store, triggers = make_pipeline()
        # Move everything to one group, then delete that group's rows.
        workload.run_update(300, assignment="supplier_id = 7")
        txn = warehouse.database.begin()
        view.apply_value_delta(triggers.drain_to_batch().records, txn)
        warehouse.database.commit(txn)
        assert set(view.groups()) == {(7,)}
        workload.run_delete(300, top_up=False)
        txn = warehouse.database.begin()
        view.apply_value_delta(triggers.drain_to_batch().records, txn)
        warehouse.database.commit(txn)
        assert view.groups() == {}

    def test_upsert_rejected(self):
        _source, _w, warehouse, view, _s, _t = make_pipeline()
        from repro.extraction.deltas import ChangeKind, DeltaRecord
        from repro.workloads import PartsGenerator

        record = DeltaRecord(
            ChangeKind.UPSERT, 1, after=PartsGenerator().row(1, timestamp=1.0)
        )
        txn = warehouse.database.begin()
        with pytest.raises(WarehouseError, match="UPSERT"):
            view.apply_value_delta([record], txn)
        warehouse.database.abort(txn)


class TestOpDeltaMaintenance:
    def test_hybrid_op_deltas(self):
        source, workload, warehouse, view, store, _triggers = make_pipeline()
        workload.run_insert(20)
        workload.run_update(30, assignment="quantity = 0")
        workload.run_delete(10, top_up=False)
        txn = warehouse.database.begin()
        for group in store.drain():
            for op in group.operations:
                view.apply_operation(op, txn)
        warehouse.database.commit(txn)
        assert_matches_select(source, view)

    def test_lean_update_rejected(self):
        source, workload, warehouse, view, _store, _triggers = make_pipeline()
        lean_store = FileLogStore(source)
        OpDeltaCapture(
            workload.session, lean_store, tables={"parts"}
        ).attach()
        workload.run_update(5)
        txn = warehouse.database.begin()
        with pytest.raises(WarehouseError, match="before images"):
            for group in lean_store.drain():
                for op in group.operations:
                    view.apply_operation(op, txn)
        warehouse.database.abort(txn)

    def test_predicate_filtered_view(self):
        definition = AggregateViewDefinition(
            "hot_by_supplier", "parts", group_by=("supplier_id",),
            aggregates=(AggregateSpec("COUNT"), AggregateSpec("SUM", "price")),
            predicate="quantity > 500",
        )
        source, workload, warehouse, view, store, _t = make_pipeline(definition)
        workload.run_update(50, assignment="quantity = 0")
        workload.run_update(40, assignment="quantity = 900")
        txn = warehouse.database.begin()
        for group in store.drain():
            for op in group.operations:
                view.apply_operation(op, txn)
        warehouse.database.commit(txn)
        assert_matches_select(source, view)


class TestAbortResilience:
    def test_aborted_maintenance_leaves_consistent_state(self):
        source, workload, warehouse, view, _store, triggers = make_pipeline()
        workload.run_update(20, assignment="supplier_id = 999")
        batch = triggers.drain_to_batch()
        txn = warehouse.database.begin()
        view.apply_value_delta(batch.records, txn)
        warehouse.database.abort(txn)  # roll everything back
        # The view must still match the PRE-change recompute... but the
        # source already changed; re-apply cleanly to converge.
        txn = warehouse.database.begin()
        view.apply_value_delta(batch.records, txn)
        warehouse.database.commit(txn)
        assert_matches_select(source, view)


def make_readings_pipeline():
    """A table with a *nullable* aggregated column (parts.price is NOT NULL)."""
    from repro.engine.schema import Column, TableSchema
    from repro.engine.types import FLOAT, INTEGER

    schema = TableSchema(
        "readings",
        [
            Column("reading_id", INTEGER, nullable=False),
            Column("sensor_id", INTEGER, nullable=False),
            Column("value", FLOAT),
        ],
        primary_key="reading_id",
    )
    definition = AggregateViewDefinition(
        "by_sensor",
        "readings",
        group_by=("sensor_id",),
        aggregates=(
            AggregateSpec("COUNT"),
            AggregateSpec("SUM", "value"),
            AggregateSpec("AVG", "value"),
        ),
    )
    source = Database("readings-src")
    source.create_table(schema)
    warehouse = Warehouse(clock=source.clock)
    view = MaterializedAggregateView(warehouse.database, definition, schema)
    session = source.connect()
    store = FileLogStore(source)
    OpDeltaCapture(
        session, store, tables={"readings"}, hybrid_policy=AlwaysHybridPolicy()
    ).attach()
    return source, session, warehouse, view, store


def apply_ops(warehouse, view, store):
    txn = warehouse.database.begin()
    for group in store.drain():
        for op in group.operations:
            view.apply_operation(op, txn)
    warehouse.database.commit(txn)


class TestNullInputRegressions:
    """NULL aggregate inputs count toward COUNT(*) but not SUM/AVG."""

    def test_null_values_excluded_from_sum_and_avg(self):
        source, session, warehouse, view, store = make_readings_pipeline()
        session.execute(
            "INSERT INTO readings (reading_id, sensor_id, value) "
            "VALUES (1, 1, 10.0), (2, 1, NULL), (3, 1, 20.0)"
        )
        apply_ops(warehouse, view, store)
        group = view.groups()[(1,)]
        assert group["count"] == 3
        assert group["count_all"] == 3
        assert group["sum_value"] == pytest.approx(30.0)
        assert group["avg_value"] == pytest.approx(15.0)  # 2 non-NULL inputs
        assert_matches_select(source, view, table="readings")

    def test_deleting_null_row_leaves_sum_and_avg_alone(self):
        source, session, warehouse, view, store = make_readings_pipeline()
        session.execute(
            "INSERT INTO readings (reading_id, sensor_id, value) "
            "VALUES (1, 1, 10.0), (2, 1, NULL), (3, 1, 20.0)"
        )
        session.execute("DELETE FROM readings WHERE reading_id = 2")
        apply_ops(warehouse, view, store)
        group = view.groups()[(1,)]
        assert group["count"] == 2
        assert group["sum_value"] == pytest.approx(30.0)
        assert group["avg_value"] == pytest.approx(15.0)
        assert_matches_select(source, view, table="readings")

    def test_update_moving_value_into_and_out_of_null(self):
        source, session, warehouse, view, store = make_readings_pipeline()
        session.execute(
            "INSERT INTO readings (reading_id, sensor_id, value) "
            "VALUES (1, 1, 10.0), (2, 1, NULL)"
        )
        # NULL -> 30.0: the row starts contributing to SUM/AVG.
        session.execute("UPDATE readings SET value = 30.0 WHERE reading_id = 2")
        apply_ops(warehouse, view, store)
        group = view.groups()[(1,)]
        assert group["sum_value"] == pytest.approx(40.0)
        assert group["avg_value"] == pytest.approx(20.0)
        # 10.0 -> NULL: the row stops contributing but still counts.
        session.execute("UPDATE readings SET value = NULL WHERE reading_id = 1")
        apply_ops(warehouse, view, store)
        group = view.groups()[(1,)]
        assert group["count"] == 2
        assert group["sum_value"] == pytest.approx(30.0)
        assert group["avg_value"] == pytest.approx(30.0)
        assert_matches_select(source, view, table="readings")

    def test_all_null_group_has_null_sum_and_avg(self):
        source, session, warehouse, view, store = make_readings_pipeline()
        session.execute(
            "INSERT INTO readings (reading_id, sensor_id, value) "
            "VALUES (7, 4, NULL), (8, 4, NULL)"
        )
        apply_ops(warehouse, view, store)
        group = view.groups()[(4,)]
        assert group["count"] == 2
        assert group["sum_value"] is None
        assert group["avg_value"] is None
        assert_matches_select(source, view, table="readings")


class TestCountZeroRetraction:
    """A group whose membership count reaches zero is physically retracted."""

    def test_opdelta_delete_retracts_group_row(self):
        source, workload, warehouse, view, store, _triggers = make_pipeline()
        workload.run_update(300, assignment="supplier_id = 7")
        workload.run_delete(300, top_up=False)
        txn = warehouse.database.begin()
        for group in store.drain():
            for op in group.operations:
                view.apply_operation(op, txn)
        warehouse.database.commit(txn)
        assert view.groups() == {}
        # The storage row is gone, not just zeroed.
        assert list(view.table.scan()) == []
        assert_matches_select(source, view)

    def test_retracted_group_can_reappear(self):
        source, session, warehouse, view, store = make_readings_pipeline()
        session.execute(
            "INSERT INTO readings (reading_id, sensor_id, value) VALUES (1, 9, 5.0)"
        )
        session.execute("DELETE FROM readings WHERE reading_id = 1")
        session.execute(
            "INSERT INTO readings (reading_id, sensor_id, value) VALUES (2, 9, 8.0)"
        )
        apply_ops(warehouse, view, store)
        group = view.groups()[(9,)]
        assert group["count"] == 1
        assert group["sum_value"] == pytest.approx(8.0)
        assert_matches_select(source, view, table="readings")
