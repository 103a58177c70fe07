"""Log-based delta extraction (paper §3.1.4).

Reading archived redo logs is the lowest-impact method: the DBMS writes the
log anyway, and shipping segments is off the critical path of user
transactions.  The hazards the paper lists are all enforced here:

* **archiving must be on** — without it, segments are recycled at
  checkpoint and there is nothing to extract;
* **proprietary formats** — a reader must match the producing product,
  product version and log-format version exactly
  (:func:`repro.engine.wal.require_compatible`);
* **schema rigidity** — decoding record images requires the exact source
  schema; applying them elsewhere requires an identical destination schema
  ("log based techniques depend on the schema of the source and the
  destination to match exactly");
* **only full re-creation** — the natural consumer is
  :func:`repro.engine.recovery.recover_from_archive`, i.e. a hot standby.

Unlike triggers and timestamps, the method *can* capture every state
change and requires no application modification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.database import Database
from ..engine.rows import decode_row
from ..engine.wal import LogRecordKind, LogSegment, committed_txn_ids, require_compatible
from ..errors import ExtractionError, LogError
from .deltas import ChangeKind, DeltaBatch, DeltaRecord


@dataclass
class LogExtraction:
    """Outcome of one archive-log extraction pass."""

    segments: list[LogSegment] = field(default_factory=list)
    batches: dict[str, DeltaBatch] = field(default_factory=dict)
    records_scanned: int = 0
    changes_decoded: int = 0
    uncommitted_skipped: int = 0

    @property
    def log_bytes(self) -> int:
        return sum(
            record.payload_bytes
            for segment in self.segments
            for record in segment.records
        )


class LogExtractor:
    """Scans archived WAL segments into per-table value deltas."""

    def __init__(self, database: Database, tables: set[str] | None = None) -> None:
        if not database.log.archive_mode:
            raise ExtractionError(
                f"database {database.name!r} does not have archiving turned "
                "on; redo segments are recycled at checkpoint time and "
                "cannot be extracted (§3.1.4)"
            )
        self._database = database
        self._tables = tables

    def extract(self) -> LogExtraction:
        """Decode archived segments into value deltas.

        A checkpoint first makes the changes since the last one visible; the
        decoded segments leave the archive (they have been shipped).  The
        reader is the database's own product and version tooling: a segment
        another product or release wrote (the compatibility hazard) raises
        :class:`~repro.errors.LogError`.
        """
        self._database.checkpoint()
        segments = self._database.log.drain_archive()
        result = LogExtraction(segments=segments)
        costs = self._database.costs
        clock = self._database.clock

        all_records = [r for segment in segments for r in segment.records]
        for segment in segments:
            require_compatible(
                segment, self._database.product, self._database.product_version
            )
        committed = committed_txn_ids(all_records)

        with self._database.tracer.span(
            "extract.log.scan", segments=len(segments)
        ):
            for record in all_records:
                result.records_scanned += 1
                clock.advance(costs.file_read(record.payload_bytes))
                if not record.is_data_change():
                    continue
                assert record.table is not None
                if self._tables is not None and record.table not in self._tables:
                    continue
                if record.txn_id not in committed:
                    result.uncommitted_skipped += 1
                    continue
                batch = result.batches.get(record.table)
                if batch is None:
                    if not self._database.has_table(record.table):
                        raise LogError(
                            f"log references table {record.table!r} with no "
                            "catalog entry; cannot decode its images"
                        )
                    schema = self._database.table(record.table).schema
                    batch = DeltaBatch(record.table, schema)
                    result.batches[record.table] = batch
                batch.append(self._decode(record, batch))
                result.changes_decoded += 1
        metrics = self._database.metrics
        metrics.counter("extract.log.records_scanned").inc(result.records_scanned)
        metrics.counter("extract.log.rows_emitted").inc(result.changes_decoded)
        metrics.counter("extract.log.delta_bytes").inc(
            sum(batch.size_bytes for batch in result.batches.values())
        )
        return result

    def _decode(self, record, batch: DeltaBatch) -> DeltaRecord:
        schema = batch.schema
        key_index = schema.primary_key_index()
        before = decode_row(schema, record.before) if record.before else None
        after = decode_row(schema, record.after) if record.after else None

        def key_of(values):
            if values is None:
                raise LogError(f"record at LSN {record.lsn} is missing its image")
            return values[key_index] if key_index is not None else record.row_id

        if record.kind is LogRecordKind.INSERT:
            return DeltaRecord(
                ChangeKind.INSERT, key_of(after), after=after, txn_id=record.txn_id,
                sequence=record.lsn,
            )
        if record.kind is LogRecordKind.DELETE:
            return DeltaRecord(
                ChangeKind.DELETE, key_of(before), before=before, txn_id=record.txn_id,
                sequence=record.lsn,
            )
        return DeltaRecord(
            ChangeKind.UPDATE, key_of(before), before=before, after=after,
            txn_id=record.txn_id, sequence=record.lsn,
        )
