"""Timestamp-based delta extraction (paper §3.1.1, Table 2).

If the source maintains a ``last_modified`` column, deltas within a period
are obtained by a query — ``SELECT * FROM PARTS WHERE last_modified_date >
12/5/99``.  The method:

* requires a table scan unless an index exists on the timestamp column —
  and even then the optimizer ignores the index when the delta is a large
  fraction of the table (modelled by the planner's selectivity threshold);
* can output to a **file** (nothing further needed) or to a **table**
  (which must then be Exported or dumped to leave the source system);
* only sees the *final* state of each row — intermediate state changes and
  deletes are invisible (tests demonstrate both limitations).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..engine.database import Database
from ..engine.schema import TableSchema
from ..engine.utilities import AsciiFile, ExportDump, ascii_dump_rows, export_table
from ..errors import ExtractionError
from .deltas import ChangeKind, DeltaBatch, DeltaRecord


@dataclass
class TimestampExtraction:
    """Outcome of one timestamp-based extraction run."""

    rows_extracted: int
    elapsed_ms: float
    plan: str
    file: AsciiFile | None = None
    delta_table: str | None = None
    export: ExportDump | None = None

    @property
    def output_bytes(self) -> int:
        if self.file is not None:
            return self.file.size_bytes
        if self.export is not None:
            return self.export.size_bytes
        return 0


class TimestampExtractor:
    """Extracts rows modified after a cutoff from one source table."""

    def __init__(self, database: Database, table_name: str) -> None:
        self._database = database
        self._table = database.table(table_name)
        if self._table.schema.timestamp_column is None:
            raise ExtractionError(
                f"table {table_name!r} has no timestamp column; the "
                "timestamp method only applies to sources that support "
                "time stamps natively"
            )
        self.table_name = table_name
        self.timestamp_column = self._table.schema.timestamp_column
        self._session = database.internal_session()

    # ------------------------------------------------------------------ output
    def extract_to_file(self, since: float) -> TimestampExtraction:
        """SELECT the delta and write complete records to a flat file."""
        started = self._database.clock.now
        with self._scan_metrics("file"):
            with self._database.tracer.span(
                "extract.timestamp.file", table=self.table_name
            ):
                result = self._session.execute(self._select_sql(since))
                output = ascii_dump_rows(
                    self._database, self._table.schema, result.rows
                )
        self._record_output(len(result.rows), output.size_bytes)
        return TimestampExtraction(
            rows_extracted=len(result.rows),
            elapsed_ms=self._database.clock.now - started,
            plan=result.plan,
            file=output,
        )

    def extract_to_table(
        self, since: float, delta_table: str | None = None
    ) -> TimestampExtraction:
        """INSERT .. SELECT the delta into a local delta table."""
        started = self._database.clock.now
        target = delta_table if delta_table is not None else f"{self.table_name}_delta"
        if not self._database.has_table(target):
            # The delta table is a plain unindexed copy of the source shape.
            plain = TableSchema(
                target, self._table.schema.columns, primary_key=None,
                timestamp_column=self._table.schema.timestamp_column,
            )
            self._database.create_table(plain)
        insert_sql = f"INSERT INTO {target} {self._select_sql(since)}"
        with self._scan_metrics("table"):
            with self._database.tracer.span(
                "extract.timestamp.table", table=self.table_name
            ):
                result = self._session.execute(insert_sql)
        self._record_output(result.rows_affected, 0)
        return TimestampExtraction(
            rows_extracted=result.rows_affected,
            elapsed_ms=self._database.clock.now - started,
            plan=result.plan,
            delta_table=target,
        )

    def extract_to_table_and_export(
        self, since: float, delta_table: str | None = None
    ) -> TimestampExtraction:
        """Table output followed by the Export utility (Table 2, row 3)."""
        extraction = self.extract_to_table(since, delta_table)
        started = self._database.clock.now
        assert extraction.delta_table is not None
        with self._database.tracer.span(
            "extract.timestamp.export", table=self.table_name
        ):
            dump = export_table(self._database, extraction.delta_table)
        self._database.metrics.counter(
            "extract.timestamp.delta_bytes"
        ).inc(dump.size_bytes)
        extraction.export = dump
        extraction.elapsed_ms += self._database.clock.now - started
        return extraction

    # ------------------------------------------------------------------ deltas
    def extract_deltas(self, since: float) -> DeltaBatch:
        """Return the delta as records (all UPSERTs — see module docstring)."""
        key_index = self._table.schema.primary_key_index()
        if key_index is None:
            raise ExtractionError(
                f"table {self.table_name!r} needs a primary key to build "
                "delta records"
            )
        with self._scan_metrics("deltas"):
            with self._database.tracer.span(
                "extract.timestamp.deltas", table=self.table_name
            ):
                result = self._session.execute(self._select_sql(since))
        batch = DeltaBatch(self.table_name, self._table.schema)
        for row in result.rows:
            batch.append(
                DeltaRecord(ChangeKind.UPSERT, row[key_index], after=tuple(row))
            )
        self._record_output(len(batch.records), batch.size_bytes)
        return batch

    def _select_sql(self, since: float) -> str:
        return (
            f"SELECT * FROM {self.table_name} "
            f"WHERE {self.timestamp_column} > {since!r}"
        )

    # ------------------------------------------------------------------- obs
    @contextmanager
    def _scan_metrics(self, output: str) -> Iterator[None]:
        """Attribute the rows the query visits to this extraction method.

        ``engine.table.rows_scanned`` advances as the executor walks the
        source table; the delta across the region is what *this* method
        scanned — the denominator of the paper's scanned-vs-emitted story.
        """
        metrics = self._database.metrics
        before = metrics.total("engine.table.rows_scanned")
        try:
            yield
        finally:
            metrics.counter("extract.timestamp.rows_scanned").inc(
                metrics.total("engine.table.rows_scanned") - before
            )

    def _record_output(self, rows_emitted: int, output_bytes: int) -> None:
        metrics = self._database.metrics
        metrics.counter("extract.timestamp.rows_emitted").inc(rows_emitted)
        if output_bytes:
            metrics.counter("extract.timestamp.delta_bytes").inc(output_bytes)
