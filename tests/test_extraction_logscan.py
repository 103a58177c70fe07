"""Tests for archive-log extraction."""

import pytest

from repro.engine import Database
from repro.errors import ExtractionError, LogError
from repro.extraction import ChangeKind, LogExtractor
from repro.workloads import OltpWorkload


@pytest.fixture
def source():
    database = Database("log-test", archive_mode=True)
    workload = OltpWorkload(database)
    workload.create_table()
    workload.populate(100)
    database.checkpoint()
    database.log.drain_archive()  # discard the load history
    return database, workload


class TestExtraction:
    def test_decodes_committed_changes(self, source):
        database, workload = source
        workload.run_update(5)
        workload.run_insert(3)
        workload.run_delete(2, top_up=False)
        outcome = LogExtractor(database, tables={"parts"}).extract()
        counts = outcome.batches["parts"].counts()
        assert counts[ChangeKind.UPDATE] == 5
        assert counts[ChangeKind.INSERT] == 3
        assert counts[ChangeKind.DELETE] == 2

    def test_uncommitted_changes_skipped(self, source):
        database, workload = source
        session = workload.session
        session.execute("BEGIN")
        session.execute("UPDATE parts SET status = 'x' WHERE part_ref < 5")
        session.execute("ROLLBACK")
        outcome = LogExtractor(database, tables={"parts"}).extract()
        assert outcome.batches.get("parts") is None or len(outcome.batches["parts"]) == 0
        assert outcome.uncommitted_skipped == 5

    def test_captures_every_state_change(self, source):
        database, workload = source
        workload.run_update(4, assignment="status = 'a'")
        workload.run_update(4, assignment="status = 'b'")
        outcome = LogExtractor(database, tables={"parts"}).extract()
        assert len(outcome.batches["parts"]) == 8

    def test_table_filter(self, source):
        database, workload = source
        workload.run_update(3)
        outcome = LogExtractor(database, tables={"other"}).extract()
        assert outcome.batches == {}

    def test_drain_consumes_segments(self, source):
        database, workload = source
        workload.run_update(3)
        extractor = LogExtractor(database, tables={"parts"})
        first = extractor.extract()
        assert len(first.batches["parts"]) == 3
        second = extractor.extract()
        assert second.batches.get("parts") is None

    def test_no_direct_impact_on_user_transactions(self, source):
        """§3.1.4: logging happens anyway; extraction is off the critical path."""
        database, workload = source
        plain = Database("plain")
        plain_workload = OltpWorkload(plain)
        plain_workload.create_table()
        plain_workload.populate(100)
        plain.checkpoint()
        archived_cost = workload.run_update(50).response_ms
        plain_cost = plain_workload.run_update(50).response_ms
        assert archived_cost == pytest.approx(plain_cost, rel=0.01)


class TestHazards:
    def test_archiving_must_be_on(self):
        database = Database("noarch", archive_mode=False)
        with pytest.raises(ExtractionError, match="archiving"):
            LogExtractor(database)

    def test_cross_product_reader_rejected(self, source):
        # The reader tooling is the database's: segments written before it
        # became another product are not readable by it.
        database, workload = source
        workload.run_update(2)
        database.product = "OtherDB"
        extractor = LogExtractor(database)
        with pytest.raises(LogError, match="cross-product"):
            extractor.extract()

    def test_version_skew_rejected(self, source):
        database, workload = source
        workload.run_update(2)
        database.product_version = "9.9"  # the reader's release moved on
        extractor = LogExtractor(database)
        with pytest.raises(LogError, match="releases"):
            extractor.extract()

    def test_log_bytes_accounted(self, source):
        database, workload = source
        workload.run_update(10)
        outcome = LogExtractor(database, tables={"parts"}).extract()
        # Updates log before+after images: 10 rows x ~2 records-worth.
        assert outcome.log_bytes > 10 * database.table("parts").schema.record_size
