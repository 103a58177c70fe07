"""Output targets for captured deltas (paper §3, "Output to File / Table").

Every extraction method except log scanning has to put its deltas
somewhere.  Two targets exist:

* **file** — an OS flat file; no further step is needed to move the deltas
  out of the source system.
* **table** — a delta table inside the source database; an extra Export or
  ASCII dump step is then required to get the deltas out, which is what
  makes the "Table output" rows of Table 2 slower end to end.

The delta-table layout prefixes the source columns with bookkeeping
columns: a change sequence (pairs an update's before/after rows), the
change operation, which image the row is, and the capturing transaction.
"""

from __future__ import annotations

from typing import Any

from ..engine.database import Database
from ..engine.schema import Column, TableSchema
from ..engine.table import InsertMode, Table
from ..engine.transactions import Transaction
from ..engine.types import INTEGER, char
from ..errors import ExtractionError
from .deltas import ChangeKind, DeltaBatch, DeltaRecord

#: Bookkeeping columns prepended to the source schema in a delta table.
DELTA_PREFIX_COLUMNS = (
    Column("change_seq", INTEGER, nullable=False),
    Column("change_op", char(1), nullable=False),
    Column("change_img", char(1), nullable=False),  # B(efore), A(fter), N(one)
    Column("change_txn", INTEGER),
)


def delta_table_schema(source_schema: TableSchema, delta_table_name: str) -> TableSchema:
    """The schema of the delta table capturing changes to ``source_schema``."""
    return TableSchema(
        delta_table_name,
        list(DELTA_PREFIX_COLUMNS) + list(source_schema.columns),
        primary_key=None,
        timestamp_column=None,
    )


class DeltaTableWriter:
    """Appends captured images to a delta table inside a database.

    Used by the trigger extractor (locally) and reusable for any method
    that chooses "output to table".  Each ``write_*`` call performs real
    inserts in the supplied transaction, so the capture cost lands on the
    transaction that caused the change — the effect Figure 2 measures.
    """

    def __init__(self, database: Database, source_schema: TableSchema,
                 delta_table_name: str) -> None:
        self._database = database
        self.source_schema = source_schema
        self.delta_table_name = delta_table_name
        schema = delta_table_schema(source_schema, delta_table_name)
        if database.has_table(delta_table_name):
            existing = database.table(delta_table_name)
            if existing.schema.signature() != schema.signature():
                raise ExtractionError(
                    f"table {delta_table_name!r} exists with an incompatible shape"
                )
            self._table: Table = existing
        else:
            self._table = database.create_table(schema)
        self._next_seq = 1

    @property
    def table(self) -> Table:
        return self._table

    def next_sequence(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    # ------------------------------------------------------------------ writes
    def write_insert(self, txn: Transaction, new: tuple[Any, ...]) -> None:
        seq = self.next_sequence()
        self._append(txn, seq, "I", "A", new)

    def write_update(
        self, txn: Transaction, old: tuple[Any, ...], new: tuple[Any, ...]
    ) -> None:
        seq = self.next_sequence()
        self._append(txn, seq, "U", "B", old)
        self._append(txn, seq, "U", "A", new)

    def write_delete(self, txn: Transaction, old: tuple[Any, ...]) -> None:
        seq = self.next_sequence()
        self._append(txn, seq, "D", "B", old)

    def _append(self, txn: Transaction, seq: int, op: str, img: str,
                row: tuple[Any, ...]) -> None:
        values = (seq, op, img, txn.txn_id) + tuple(row)
        self._table.insert(txn, values, mode=InsertMode.STATEMENT,
                           fire_triggers=False)

    # ------------------------------------------------------------------- reads
    def truncate(self) -> int:
        """Empty the delta table after it has been drained."""
        return self._table.truncate()


def delta_rows_to_batch(
    source_schema: TableSchema,
    rows: list[tuple[Any, ...]],
) -> DeltaBatch:
    """Decode delta-table rows (prefix + source columns) into a DeltaBatch.

    Rows must be in capture order; an update's B and A rows are paired by
    their shared change sequence.
    """
    key_index = source_schema.primary_key_index()
    if key_index is None:
        raise ExtractionError(
            f"source table {source_schema.name!r} needs a primary key to "
            "convert captured images into delta records"
        )
    prefix = len(DELTA_PREFIX_COLUMNS)
    batch = DeltaBatch(source_schema.name, source_schema)
    pending_updates: dict[int, tuple[Any, ...]] = {}
    # Physical scan order can diverge from capture order once slots are
    # reused; the change sequence is authoritative (B sorts before A).
    rows = sorted(rows, key=lambda row: (row[0], row[2] == "A"))
    for row in rows:
        seq, op, img, txn_id = row[:prefix]
        image = tuple(row[prefix:])
        if op == "I":
            batch.append(DeltaRecord(
                ChangeKind.INSERT, image[key_index], after=image,
                txn_id=txn_id, sequence=seq,
            ))
        elif op == "D":
            batch.append(DeltaRecord(
                ChangeKind.DELETE, image[key_index], before=image,
                txn_id=txn_id, sequence=seq,
            ))
        elif op == "P":
            batch.append(DeltaRecord(
                ChangeKind.UPSERT, image[key_index], after=image,
                txn_id=txn_id, sequence=seq,
            ))
        elif op == "U":
            if img == "B":
                if seq in pending_updates:
                    raise ExtractionError(f"duplicate before image for seq {seq}")
                pending_updates[seq] = image
            else:
                before = pending_updates.pop(seq, None)
                if before is None:
                    raise ExtractionError(f"after image without before for seq {seq}")
                batch.append(DeltaRecord(
                    ChangeKind.UPDATE, before[key_index], before=before,
                    after=image, txn_id=txn_id, sequence=seq,
                ))
        else:
            raise ExtractionError(f"unknown change op {op!r} in delta table")
    if pending_updates:
        raise ExtractionError(
            f"unpaired update before-images for sequences {sorted(pending_updates)}"
        )
    return batch
