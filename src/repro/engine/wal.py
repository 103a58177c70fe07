"""Write-ahead log with checkpoints and archive segments.

The engine logs physiologically (paper §3.1.4, citing Gray & Reuter): each
record carries the physical address (:class:`RowId`) plus the encoded before
and/or after images.  Committed work is made "durable" by forcing the log
(a group-commit fsync charge).

When **archive mode** is on, segments are retained at checkpoint time instead
of being recycled — this is exactly the hook the log-based extraction method
(§3.1.4) depends on.  Segments are tagged with the producing product name,
version and log-format version so that :mod:`repro.extraction.logscan` can
reproduce the paper's compatibility hazards: proprietary formats, version
skew across releases, and cross-product incompatibility.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from ..clock import VirtualClock
from ..errors import LogError
from ..obs.metrics import MetricsLike, MetricsRegistry
from .costs import CostModel
from .rows import RowId

#: Simulated proprietary log-format version; bump-on-release semantics.
LOG_FORMAT_VERSION = "7.3"


class LogRecordKind(enum.Enum):
    BEGIN = "BEGIN"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    INSERT = "INSERT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"
    CHECKPOINT = "CHECKPOINT"


@dataclass(frozen=True)
class LogRecord:
    """One physiological log record."""

    lsn: int
    kind: LogRecordKind
    txn_id: int
    table: str | None = None
    row_id: RowId | None = None
    before: bytes | None = None
    after: bytes | None = None

    @property
    def payload_bytes(self) -> int:
        """Approximate on-disk size, used for cost accounting."""
        size = 32  # header: lsn, kind, txn, table ref, row id
        if self.before is not None:
            size += len(self.before)
        if self.after is not None:
            size += len(self.after)
        return size

    def is_data_change(self) -> bool:
        return self.kind in (
            LogRecordKind.INSERT,
            LogRecordKind.UPDATE,
            LogRecordKind.DELETE,
        )


@dataclass
class LogSegment:
    """A closed run of log records plus provenance metadata.

    ``product`` / ``product_version`` / ``format_version`` model the
    proprietary-format hazards of §3.1.4: a reader must match all three.
    """

    segment_id: int
    product: str
    product_version: str
    format_version: str
    records: list[LogRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)


class LogManager:
    """Appends, forces, checkpoints and archives the WAL."""

    def __init__(
        self,
        clock: VirtualClock,
        costs: CostModel,
        product: str = "ReproDB",
        product_version: str = "1.0",
        archive_mode: bool = False,
        metrics: MetricsLike | None = None,
    ) -> None:
        self._clock = clock
        self._costs = costs
        self.product = product
        self.product_version = product_version
        self.archive_mode = archive_mode
        self._next_lsn = 1
        self._next_segment_id = 1
        self._active: list[LogRecord] = []
        self._archived: list[LogSegment] = []
        self._flushed_lsn = 0
        if metrics is None:
            metrics = MetricsRegistry()
        self._m_records = metrics.counter("engine.wal.record")
        self._m_bytes = metrics.counter("engine.wal.bytes")
        self._m_forces = metrics.counter("engine.wal.force")

    # ------------------------------------------------------------------ write
    def append(
        self,
        kind: LogRecordKind,
        txn_id: int,
        table: str | None = None,
        row_id: RowId | None = None,
        before: bytes | None = None,
        after: bytes | None = None,
    ) -> LogRecord:
        record = LogRecord(self._next_lsn, kind, txn_id, table, row_id, before, after)
        self._next_lsn += 1
        self._active.append(record)
        size = record.payload_bytes
        self._m_records.inc()
        self._m_bytes.inc(size)
        self._clock.advance(self._costs.log_append(size))
        return record

    def append_batch(
        self,
        entries: Iterable[
            tuple[
                LogRecordKind,
                int,
                str | None,
                RowId | None,
                bytes | None,
                bytes | None,
            ]
        ],
    ) -> list[LogRecord]:
        """Group-append many records with one fixed-cost charge.

        Emits exactly the records :meth:`append` would (same LSN order,
        same payloads — recovery and log-scan extraction see no
        difference); only the *fixed* per-record append cost is paid
        once for the batch, while bytes are charged in full.
        """
        records: list[LogRecord] = []
        total_bytes = 0
        for kind, txn_id, table, row_id, before, after in entries:
            record = LogRecord(
                self._next_lsn, kind, txn_id, table, row_id, before, after
            )
            self._next_lsn += 1
            self._active.append(record)
            records.append(record)
            total_bytes += record.payload_bytes
        if records:
            self._m_records.inc(len(records))
            self._m_bytes.inc(total_bytes)
            self._clock.advance(
                self._costs.log_append_batch(total_bytes, len(records))
            )
        return records

    def force(self) -> int:
        """Flush the log up to the last appended record (commit durability)."""
        if self._active and self._active[-1].lsn > self._flushed_lsn:
            self._m_forces.inc()
            self._clock.advance(self._costs.log_force)
            self._flushed_lsn = self._active[-1].lsn
        return self._flushed_lsn

    # ------------------------------------------------------------- checkpoint
    def checkpoint(self) -> LogSegment | None:
        """Close the active segment.

        With archiving on, the closed segment is retained and returned;
        otherwise it is recycled (discarded) and ``None`` is returned —
        exactly the behaviour §3.1.4 describes for redo logs.
        """
        self.append(LogRecordKind.CHECKPOINT, txn_id=0)
        self.force()
        segment = LogSegment(
            segment_id=self._next_segment_id,
            product=self.product,
            product_version=self.product_version,
            format_version=LOG_FORMAT_VERSION,
            records=self._active,
        )
        self._next_segment_id += 1
        self._active = []
        if self.archive_mode:
            self._archived.append(segment)
            return segment
        return None

    # ------------------------------------------------------------------- read
    def drain_archive(self) -> list[LogSegment]:
        """Remove and return the archived segments (they have been 'shipped')."""
        shipped, self._archived = self._archived, []
        return shipped


def committed_txn_ids(records: Iterable[LogRecord]) -> set[int]:
    """The transaction ids with a COMMIT record in the stream."""
    return {r.txn_id for r in records if r.kind is LogRecordKind.COMMIT}


def require_compatible(segment: LogSegment, product: str, product_version: str) -> None:
    """Raise :class:`LogError` unless the segment matches the reader exactly.

    This models §3.1.4: log formats are proprietary, change across releases,
    and are never compatible across DBMS products.
    """
    if segment.product != product:
        raise LogError(
            f"log segment {segment.segment_id} was written by {segment.product!r}; "
            f"reader is {product!r} (cross-product log reading is not supported)"
        )
    if segment.product_version != product_version:
        raise LogError(
            f"log segment {segment.segment_id} has product version "
            f"{segment.product_version!r}; reader expects {product_version!r} "
            "(log formats change across releases)"
        )
    if segment.format_version != LOG_FORMAT_VERSION:
        raise LogError(
            f"log segment {segment.segment_id} has format version "
            f"{segment.format_version!r}; reader expects {LOG_FORMAT_VERSION!r}"
        )
