"""Tests for the warehouse facade and the OLAP query set."""

import pytest

from repro.engine import Database
from repro.engine.utilities import ascii_dump_table, ascii_load
from repro.errors import ConstraintError, WarehouseError
from repro.warehouse import Warehouse, measure_mix_cost, standard_queries
from repro.warehouse.olap import measure_query_cost
from repro.workloads import (
    OltpWorkload,
    PartsGenerator,
    parts_schema,
    suppliers_schema,
)


@pytest.fixture
def loaded_warehouse():
    source = Database("olap-src")
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(400)
    warehouse = Warehouse(clock=source.clock)
    warehouse.create_mirror(parts_schema())
    warehouse.initial_load_rows(
        "parts", (v for _r, v in source.table("parts").scan())
    )
    dim = warehouse.database.create_table(suppliers_schema())
    txn = warehouse.database.begin()
    for row in PartsGenerator().supplier_rows():
        dim.insert(txn, row)
    warehouse.database.commit(txn)
    return source, warehouse


class TestWarehouseFacade:
    def test_mirror_map(self, loaded_warehouse):
        # A mirror has its source table's name and layout.
        _source, warehouse = loaded_warehouse
        mirror = warehouse.database.table("parts")
        assert mirror.schema.column_names == parts_schema().column_names
        assert mirror.num_rows == 400

    def test_initial_load_via_loader(self, loaded_warehouse):
        source, _warehouse = loaded_warehouse
        dump = ascii_dump_table(source, "parts")
        fresh = Warehouse("fresh", clock=source.clock)
        fresh.create_mirror(parts_schema())
        assert ascii_load(fresh.database, "parts", dump) == 400

    @staticmethod
    def _watched_warehouse():
        """An empty ``parts`` mirror, and the transactions it aborts."""
        warehouse = Warehouse()
        warehouse.create_mirror(parts_schema())
        aborted = []
        warehouse.database.transactions.abort_listeners.append(aborted.append)
        return warehouse, aborted

    def test_failed_bulk_load_is_aborted(self):
        warehouse, aborted = self._watched_warehouse()
        row = next(iter(PartsGenerator().rows(1)))
        with pytest.raises(ConstraintError):
            warehouse.initial_load_rows("parts", [row, row])
        # Its transaction ended, and its first row went with it.
        assert [txn.is_active for txn in aborted] == [False]
        assert warehouse.database.table("parts").num_rows == 0
        assert warehouse.initial_load_rows("parts", [row]) == 1
        assert list(warehouse.database.table("parts").scan_values()) == [row]

    def test_failed_staging_refresh_is_aborted(self):
        warehouse, aborted = self._watched_warehouse()
        rows = list(PartsGenerator().rows(3))
        warehouse.initial_load_rows("parts", rows)
        with pytest.raises(ConstraintError):
            warehouse.staging_refresh("parts", [rows[0], rows[0], rows[1]])
        # The truncate is not undone: empty, never half-loaded.
        assert [txn.is_active for txn in aborted] == [False]
        assert warehouse.database.table("parts").num_rows == 0

    def test_view_registry(self, loaded_warehouse):
        from repro.core import ViewDefinition

        _source, warehouse = loaded_warehouse
        definition = ViewDefinition(
            "v", "parts", columns=("part_id", "status"), key_column="part_id",
            base_columns=parts_schema().column_names,
        )
        view = warehouse.define_view(definition, parts_schema())
        assert warehouse.view("v") is view
        assert warehouse.views == [view]
        with pytest.raises(WarehouseError):
            warehouse.view("nope")


class TestOlapQueries:
    def test_standard_mix_runs(self, loaded_warehouse):
        _source, warehouse = loaded_warehouse
        queries = standard_queries(
            "parts", measure_column="price", group_column="supplier_id",
            filter_column="status", filter_value="revised",
            dimension_table="suppliers", dimension_key="supplier_id",
            fact_foreign_key="supplier_id",
        )
        assert len(queries) == 4
        session = warehouse.database.internal_session()
        costs = measure_mix_cost(warehouse.database, session, queries)
        assert set(costs) == {
            "total_measure", "by_group", "filtered", "dimension_join",
        }
        assert all(cost > 0 for cost in costs.values())

    def test_dimension_query_needs_keys(self):
        with pytest.raises(WarehouseError):
            standard_queries(
                "parts", "price", "supplier_id", "status", "x",
                dimension_table="suppliers",
            )

    def test_query_cost_measured_on_engine(self, loaded_warehouse):
        _source, warehouse = loaded_warehouse
        queries = standard_queries(
            "parts", "price", "supplier_id", "status", "revised"
        )
        session = warehouse.database.internal_session()
        cost = measure_query_cost(warehouse.database, session, queries[0])
        assert cost > 0
