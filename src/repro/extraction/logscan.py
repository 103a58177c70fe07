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

A pass decodes the changes of the transactions that committed in the
segments it read.  A transaction still open when the pass runs (no COMMIT
or ABORT yet) has its changes held by the extractor and decoded by the pass
that reads its COMMIT — a log reader must not lose an in-flight transaction
— and dropped by the pass that reads its ABORT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from ..engine.database import Database
from ..engine.page import slots_per_page
from ..engine.wal import LogRecord, LogRecordKind, LogSegment, require_compatible
from ..errors import ExtractionError, LogError
from .deltas import ChangeKind, DeltaBatch, DeltaRecord

#: The record kinds that end a transaction.
_ENDS = (LogRecordKind.COMMIT, LogRecordKind.ABORT)
#: The data-change record kinds (a tuple: members compare by identity,
#: while a set or dict would hash them in Python).
_CHANGES = (LogRecordKind.INSERT, LogRecordKind.UPDATE, LogRecordKind.DELETE)


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
        #: Data changes of transactions with no COMMIT or ABORT in the
        #: segments read so far, in LSN order: the next pass decides them.
        self._in_flight: list[LogRecord] = []

    def extract(self) -> LogExtraction:
        """Decode archived segments into value deltas.

        A checkpoint first makes the changes since the last one visible; the
        decoded segments leave the archive (they have been shipped).  The
        reader is the database's own product and version tooling: a segment
        another product or release wrote (the compatibility hazard) raises
        :class:`~repro.errors.LogError`.  Every record read pays its file
        read, one addition per record in LSN order (up to the record that
        raised, if one does); a change held over from the last pass was paid
        for then.  The picked changes are decoded a table at a time.
        """
        database = self._database
        database.checkpoint()
        segments = database.log.drain_archive()
        result = LogExtraction(segments=segments)
        for segment in segments:
            require_compatible(segment, database.product, database.product_version)
        records = [r for segment in segments for r in segment.records]
        ended = {r.txn_id: r.kind for r in records if r.kind in _ENDS}
        read = database.costs.file_read
        charges = [read(r.payload_bytes) for r in records]
        tables = self._tables
        held, self._in_flight = self._in_flight, []
        picked: dict[str, list[LogRecord]] = {}
        scanned = 0
        with database.tracer.span("extract.log.scan", segments=len(segments)):
            try:
                for record in held:
                    self._pick(record, ended, picked, result)
                for scanned, record in enumerate(records, 1):
                    if record.kind in _CHANGES and (
                        tables is None or record.table in tables
                    ):
                        self._pick(record, ended, picked, result)
            finally:
                database.clock.advance_cycle(charges[:scanned], 1)
            for table, changes in picked.items():
                batch = DeltaBatch(table, database.table(table).schema)
                result.batches[table] = _decode(batch, changes)
                result.changes_decoded += len(changes)
        result.records_scanned = scanned
        metrics = database.metrics
        metrics.counter("extract.log.records_scanned").inc(result.records_scanned)
        metrics.counter("extract.log.rows_emitted").inc(result.changes_decoded)
        metrics.counter("extract.log.delta_bytes").inc(
            sum(batch.size_bytes for batch in result.batches.values())
        )
        return result

    def _pick(
        self,
        record: LogRecord,
        ended: dict[int, LogRecordKind],
        picked: dict[str, list[LogRecord]],
        result: LogExtraction,
    ) -> None:
        """Pick a data change of a committed transaction for decoding; hold
        one of a transaction still open for the next pass; drop an aborted
        one's."""
        end = ended.get(record.txn_id)
        if end is not LogRecordKind.COMMIT:
            result.uncommitted_skipped += 1
            if end is None:
                self._in_flight.append(record)
            return
        assert record.table is not None
        changes = picked.get(record.table)
        if changes is None:
            if not self._database.has_table(record.table):
                raise LogError(
                    f"log references table {record.table!r} with no catalog "
                    "entry; cannot decode its images"
                )
            changes = picked[record.table] = []
        kind = record.kind
        if (kind is not LogRecordKind.INSERT and not record.before) or (
            kind is not LogRecordKind.DELETE and not record.after
        ):
            raise LogError(f"record at LSN {record.lsn} is missing its image")
        changes.append(record)


def _decode(batch: DeltaBatch, records: list[LogRecord]) -> DeltaBatch:
    """One table's picked changes, decoded into its ``batch``: the images a
    page's worth at a time by the codec's page decoder (a bounded transient,
    whatever the pass holds), the key position read once."""
    insert, delete = LogRecordKind.INSERT, LogRecordKind.DELETE
    images: list[bytes] = []
    for record in records:
        if record.kind is not insert:
            images.append(record.before)  # type: ignore[arg-type]
        if record.kind is not delete:
            images.append(record.after)  # type: ignore[arg-type]
    schema = batch.schema
    decode_page, per_page = schema.codec.decode_page, slots_per_page(schema.record_size)
    rows = chain.from_iterable(
        decode_page(images[at:at + per_page]) for at in range(0, len(images), per_page)
    )
    key_index = schema.primary_key_index()
    for record in records:
        kind = record.kind
        if kind is insert:
            change, before, after = ChangeKind.INSERT, None, next(rows)
            image = after
        elif kind is delete:
            change, before, after = ChangeKind.DELETE, next(rows), None
            image = before
        else:
            change, before = ChangeKind.UPDATE, next(rows)
            after, image = next(rows), before
        batch.append(DeltaRecord(
            change,
            record.row_id if key_index is None else image[key_index],
            before=before, after=after,
            txn_id=record.txn_id, sequence=record.lsn,
        ))
    return batch
