"""Tests for the write-ahead log, checkpoints and archive segments."""

import pytest

from repro.clock import VirtualClock
from repro.engine.costs import DEFAULT_COST_MODEL
from repro.engine.rows import RowId
from repro.engine.wal import (
    LOG_FORMAT_VERSION,
    LogManager,
    LogRecordKind,
    LogSegment,
    committed_txn_ids,
    require_compatible,
)
from repro.errors import LogError


@pytest.fixture
def log():
    return LogManager(VirtualClock(), DEFAULT_COST_MODEL, archive_mode=True)


class TestAppendAndForce:
    def test_lsns_increase(self, log):
        first = log.append(LogRecordKind.BEGIN, 1)
        second = log.append(LogRecordKind.COMMIT, 1)
        assert second.lsn == first.lsn + 1

    def test_force_advances_flushed_lsn(self, log):
        record = log.append(LogRecordKind.BEGIN, 1)
        assert log._flushed_lsn < record.lsn
        assert log.force() == record.lsn

    def test_force_idempotent_without_new_records(self, log):
        log.append(LogRecordKind.BEGIN, 1)
        log.force()
        clock_before = log._clock.now
        log.force()  # nothing new: no fsync charge
        assert log._clock.now == clock_before

    def test_payload_includes_images(self, log):
        record = log.append(
            LogRecordKind.UPDATE, 1, "t", RowId(0, 0), before=b"a" * 50,
            after=b"b" * 50,
        )
        assert record.payload_bytes == 32 + 100


class TestCheckpointAndArchive:
    def test_archiving_retains_segment(self, log):
        log.append(LogRecordKind.BEGIN, 1)
        segment = log.checkpoint()
        assert segment is not None
        assert log.drain_archive() == [segment]

    def test_no_archive_recycles(self):
        log = LogManager(VirtualClock(), DEFAULT_COST_MODEL, archive_mode=False)
        log.append(LogRecordKind.BEGIN, 1)
        assert log.checkpoint() is None
        assert log.drain_archive() == []

    def test_checkpoint_closes_active(self, log):
        log.append(LogRecordKind.BEGIN, 1)
        log.checkpoint()
        assert log._active == []

    def test_segment_ids_increase(self, log):
        log.append(LogRecordKind.BEGIN, 1)
        first = log.checkpoint()
        log.append(LogRecordKind.BEGIN, 2)
        second = log.checkpoint()
        assert second.segment_id == first.segment_id + 1

    def test_drain_archive(self, log):
        log.append(LogRecordKind.BEGIN, 1)
        log.checkpoint()
        shipped = log.drain_archive()
        assert len(shipped) == 1
        assert log.drain_archive() == []

    def test_segment_provenance(self, log):
        log.append(LogRecordKind.BEGIN, 1)
        segment = log.checkpoint()
        assert segment.product == "ReproDB"
        assert segment.format_version == LOG_FORMAT_VERSION


class TestRecordFilters:
    def test_records_for_tables(self, log):
        log.append(LogRecordKind.INSERT, 1, "a", RowId(0, 0), after=b"x")
        log.append(LogRecordKind.INSERT, 1, "b", RowId(0, 0), after=b"x")
        log.append(LogRecordKind.COMMIT, 1)
        segment = log.checkpoint()
        # What the log scanner keeps of a segment: one table's data changes.
        kept = [r for r in segment.records if r.is_data_change() and r.table == "a"]
        assert [(r.kind, r.table) for r in kept] == [(LogRecordKind.INSERT, "a")]
        assert [r.is_data_change() for r in segment.records] == [
            True, True, False, False,
        ]

    def test_committed_txn_ids(self, log):
        log.append(LogRecordKind.BEGIN, 1)
        log.append(LogRecordKind.COMMIT, 1)
        log.append(LogRecordKind.BEGIN, 2)
        log.append(LogRecordKind.ABORT, 2)
        segment = log.checkpoint()
        assert committed_txn_ids(segment.records) == {1}


class TestCompatibility:
    def _segment(self, **overrides) -> LogSegment:
        defaults = dict(
            segment_id=1, product="ReproDB", product_version="1.0",
            format_version=LOG_FORMAT_VERSION, records=[],
        )
        defaults.update(overrides)
        return LogSegment(**defaults)

    def test_matching_passes(self):
        require_compatible(self._segment(), "ReproDB", "1.0")

    def test_cross_product_rejected(self):
        with pytest.raises(LogError, match="cross-product"):
            require_compatible(self._segment(product="OtherDB"), "ReproDB", "1.0")

    def test_version_skew_rejected(self):
        with pytest.raises(LogError, match="releases"):
            require_compatible(self._segment(product_version="2.0"), "ReproDB", "1.0")

    def test_format_skew_rejected(self):
        with pytest.raises(LogError, match="format version"):
            require_compatible(self._segment(format_version="9.9"), "ReproDB", "1.0")
