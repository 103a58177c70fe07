"""Synthetic PARTS records (~100 bytes each, as in the paper's experiments).

The paper's workload is manufacturing data: a PARTS table of 100-byte
records, transactions sized 10..10,000 rows, timestamps maintained
natively.  :func:`parts_schema` defines the table; :class:`PartsGenerator`
produces deterministic, seeded rows.

``part_ref`` duplicates the primary key in an **unindexed** column so the
workloads can select exactly *n* rows while forcing the table scans the
paper describes ("Each update transaction performs a table scan...").
"""

from __future__ import annotations

import random
from typing import Iterator

from ..engine.schema import Column, TableSchema
from ..engine.types import FLOAT, INTEGER, TIMESTAMP, char

STATUSES = ("new", "active", "revised", "shipped", "retired")


def parts_schema(name: str = "parts") -> TableSchema:
    """The PARTS table: 9 columns, 112-byte fixed records."""
    return TableSchema(
        name,
        [
            Column("part_id", INTEGER, nullable=False),
            Column("part_ref", INTEGER, nullable=False),  # unindexed PK copy
            Column("part_no", char(12), nullable=False),
            Column("description", char(40)),
            Column("status", char(10), nullable=False),
            Column("quantity", INTEGER, nullable=False),
            Column("price", FLOAT, nullable=False),
            Column("last_modified", TIMESTAMP),
            Column("supplier_id", INTEGER, nullable=False),
        ],
        primary_key="part_id",
    )


def suppliers_schema() -> TableSchema:
    """A small dimension table for join views and OLAP joins."""
    return TableSchema(
        "suppliers",
        [
            Column("supplier_id", INTEGER, nullable=False),
            Column("supplier_name", char(24), nullable=False),
            Column("region", char(12), nullable=False),
        ],
        primary_key="supplier_id",
    )


def strip_timestamp(schema: TableSchema, rows) -> list[tuple]:
    """Drop the timestamp column from rows (sorted), for state comparisons.

    Last-modified stamps are assigned by each database's own clock, so two
    stores holding the same logical data differ in that column; comparisons
    of logical content ignore it.
    """
    if schema.timestamp_column is None:
        return sorted(tuple(row) for row in rows)
    position = schema.column_index(schema.timestamp_column)
    return sorted(
        tuple(value for index, value in enumerate(row) if index != position)
        for row in rows
    )


#: Suppliers a generated part row references (``supplier_rows`` yields them).
NUM_SUPPLIERS = 20


class PartsGenerator:
    """Deterministic part-row generator."""

    def __init__(self, seed: int = 20000229) -> None:
        self._rng = random.Random(seed)

    def row(self, part_id: int, timestamp: float | None = None) -> tuple:
        """One PARTS row with the given key."""
        rng = self._rng
        return (
            part_id,
            part_id,
            f"PN-{part_id:08d}",
            f"part {part_id} {rng.choice('ABCDEF') * rng.randint(3, 8)}",
            rng.choice(STATUSES),
            rng.randint(0, 999),
            round(rng.uniform(0.5, 5000.0), 2),
            timestamp,
            rng.randrange(NUM_SUPPLIERS),
        )

    def rows(self, count: int, start_id: int = 0) -> Iterator[tuple]:
        for part_id in range(start_id, start_id + count):
            yield self.row(part_id)

    def supplier_rows(self) -> Iterator[tuple]:
        regions = ("NW", "SW", "NE", "SE", "EU", "APAC")
        for supplier_id in range(NUM_SUPPLIERS):
            yield (
                supplier_id,
                f"Supplier {supplier_id:03d}",
                regions[supplier_id % len(regions)],
            )
