"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.engine import Column, Database, TableSchema
from repro.engine.types import FLOAT, INTEGER, TIMESTAMP, char
from repro.workloads import OltpWorkload, PartsGenerator, parts_schema

# Tier-1 is a gate, so it draws the same examples on every run.  Searching
# for new counterexamples stays one flag away: ``--hypothesis-profile=default``
# (hypothesis's own random profile) overrides the profile loaded here.
settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")


@pytest.fixture
def db() -> Database:
    """An empty database with a private clock."""
    return Database("test")


@pytest.fixture
def small_schema() -> TableSchema:
    """A compact three-column schema used by the storage-layer tests."""
    return TableSchema(
        "items",
        [
            Column("item_id", INTEGER, nullable=False),
            Column("name", char(16)),
            Column("price", FLOAT),
        ],
        primary_key="item_id",
    )


@pytest.fixture
def parts_db() -> Database:
    """A database with an empty PARTS table (auto timestamps on)."""
    database = Database("parts-test")
    database.create_table(parts_schema(), auto_timestamp=True)
    return database


@pytest.fixture
def workload() -> OltpWorkload:
    """A populated 1,000-row PARTS workload."""
    database = Database("workload-test")
    oltp = OltpWorkload(database)
    oltp.create_table()
    oltp.populate(1_000)
    return oltp


@pytest.fixture
def generator() -> PartsGenerator:
    return PartsGenerator(seed=99)


def insert_parts(database: Database, count: int, start_id: int = 0) -> None:
    """Directly insert ``count`` parts rows (test setup helper)."""
    from repro.engine.table import InsertMode

    table = database.table("parts")
    rows = PartsGenerator(seed=5).rows(count, start_id=start_id)
    txn = database.begin()
    for row in rows:
        table.insert(txn, row, mode=InsertMode.BULK_INTERNAL)
    database.commit(txn)
