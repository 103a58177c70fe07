"""Full-table snapshots (paper §3.1.2 substrate).

Some source systems only allow periodic dumps; the differential-snapshot
extraction method then compares consecutive snapshots.  A snapshot here is
a materialised copy of the table's rows tagged with the virtual time it was
taken; producing one costs a full sequential dump, which is exactly why the
paper calls the method "prohibitively resource intensive".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Any

from ..errors import SnapshotError
from .database import Database
from .page import slots_per_page
from .schema import TableSchema
from .utilities import charge_paged_output


@dataclass
class Snapshot:
    """A point-in-time copy of one table's rows (not changed once taken)."""

    table_name: str
    schema: TableSchema
    taken_at: float
    rows: list[tuple[Any, ...]] = field(default_factory=list)

    @property
    def num_records(self) -> int:
        return len(self.rows)

    @property
    def size_bytes(self) -> int:
        return len(self.rows) * self.schema.record_size

    @cached_property
    def rows_by_key(self) -> list[tuple[Any, ...]]:
        """The rows sorted by primary key (snapshot diffing is key-based),
        sorted once per snapshot: the new side of one differential is the
        old side of the next."""
        position = self.schema.primary_key_index()
        if position is None:
            raise SnapshotError(
                f"snapshot of {self.table_name!r} has no primary key; "
                "differential snapshots need one to match rows"
            )
        return sorted(self.rows, key=itemgetter(position))


def take_snapshot(database: Database, table_name: str) -> Snapshot:
    """Dump a table into a snapshot, paying full sequential-dump costs.

    Per record the scan and the file write, and per full output page a
    sequential page write: charged a heap page (and output page) segment at
    a time, the same additions in the same order as record by record.
    """
    table = database.table(table_name)
    clock, costs = database.clock, database.costs
    clock.advance(costs.file_open)
    snapshot = Snapshot(
        table_name=table_name,
        schema=table.schema,
        taken_at=clock.now,
    )
    record_size = table.schema.record_size
    per_page = slots_per_page(record_size)
    cycle = (costs.row_scan_cpu, costs.file_write(record_size))
    filled = 0
    for rows in table.scan_pages():
        snapshot.rows.extend(rows)
        filled = charge_paged_output(database, cycle, len(rows), filled, per_page)
    if filled:
        clock.advance(costs.seq_page_write)
    clock.advance(costs.file_sync)
    return snapshot
