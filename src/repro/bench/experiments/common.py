"""Shared setup helpers for the experiment modules."""

from __future__ import annotations

from ...engine.buffer import DEFAULT_POOL_PAGES
from ...engine.database import Database
from ...engine.schema import TableSchema
from ...engine.table import InsertMode
from ...warehouse.opdelta_integrator import OpDeltaIntegrator
from ...warehouse.warehouse import Warehouse
from ...workloads.oltp import OltpWorkload
from ...workloads.records import PartsGenerator, parts_schema

#: Pool size modelling "the 1G table does not fit in the 128M machine"
#: (Tables 1-3 run against it with scaled tables that exceed it).
SMALL_POOL_PAGES = 128


def plain_parts_schema(name: str) -> TableSchema:
    """A PARTS-shaped table without a primary key (delta tables)."""
    base = parts_schema(name)
    return TableSchema(
        name, base.columns, primary_key=None, timestamp_column=base.timestamp_column
    )


def build_workload_database(
    rows: int,
    buffer_pages: int = DEFAULT_POOL_PAGES,
    name: str = "source",
) -> tuple[Database, OltpWorkload]:
    """A source database with a populated PARTS table and its workload."""
    database = Database(name, buffer_pages=buffer_pages)
    workload = OltpWorkload(database)
    workload.create_table()
    workload.populate(rows)
    # Checkpoint so measurements start from a clean buffer — otherwise the
    # first measured operation pays the load's dirty-page write-back debt.
    database.checkpoint()
    return database, workload


def fill_plain_table(database: Database, table_name: str, rows: int) -> None:
    """Create and fill an unindexed PARTS-shaped table (untimed setup path)."""
    if not database.has_table(table_name):
        database.create_table(plain_parts_schema(table_name))
    table = database.table(table_name)
    generator = PartsGenerator(seed=7)
    txn = database.begin()
    table.insert_many(txn, generator.rows(rows), mode=InsertMode.BULK_INTERNAL)
    database.commit(txn)
    database.checkpoint()


def build_parts_warehouse(name: str, clock, initial_rows, analyzer, sanitizer=None):
    """A loaded warehouse and the integrator that maintains it.

    The warehouse mirrors ``parts`` and materialises the analyzer's first
    view (the full-width ``parts_catalog``), both filled from
    ``initial_rows``; the integrator applies Op-Deltas to the pair.
    """
    schema = parts_schema()
    warehouse = Warehouse(name, clock=clock)
    warehouse.create_mirror(schema)
    warehouse.initial_load_rows("parts", initial_rows)
    view = warehouse.define_view(analyzer.views[0], schema)
    txn = warehouse.database.begin()
    view.initialize(initial_rows, txn)
    warehouse.database.commit(txn)
    integrator = OpDeltaIntegrator(
        warehouse.database.internal_session(),
        views=[view],
        analyzer=analyzer,
        sanitizer=sanitizer,
    )
    return warehouse, integrator
