"""Tests for trigger-based extraction."""

import pytest

from repro.engine import Database, export_table
from repro.engine.remote import LinkKind
from repro.errors import ExtractionError
from repro.extraction import ChangeKind, TriggerExtractor
from repro.workloads import OltpWorkload


@pytest.fixture
def source():
    database = Database("trig-test")
    workload = OltpWorkload(database)
    workload.create_table()
    workload.populate(200)
    return database, workload


class TestInstallation:
    def test_install_creates_triggers_and_delta_table(self, source):
        database, _workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        assert database.has_table("parts_cdc")
        assert len(database.table("parts").triggers) == 3

    def test_double_install_rejected(self, source):
        database, _workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        with pytest.raises(ExtractionError):
            extractor.install()

    def test_uninstall_removes_triggers(self, source):
        database, _workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        extractor.uninstall()
        assert len(database.table("parts").triggers) == 0


class TestCapture:
    def test_captures_every_state_change(self, source):
        database, workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        workload.run_update(5, assignment="status = 'a'")
        workload.run_update(5, assignment="status = 'b'")
        batch = extractor.drain_to_batch()
        # Unlike timestamps, triggers see both intermediate states.
        assert len(batch) == 10
        assert all(r.kind is ChangeKind.UPDATE for r in batch)

    def test_update_carries_both_images(self, source):
        database, workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        workload.run_update(3, assignment="status = 'zz'")
        batch = extractor.drain_to_batch()
        status = database.table("parts").schema.column_index("status")
        for record in batch:
            assert record.before is not None and record.after is not None
            assert record.after[status] == "zz"
            assert record.before[status] != "zz"

    def test_insert_and_delete_images(self, source):
        database, workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        workload.run_insert(4)
        workload.run_delete(2, top_up=False)
        counts = extractor.drain_to_batch().counts()
        assert counts[ChangeKind.INSERT] == 4
        assert counts[ChangeKind.DELETE] == 2

    def test_rolled_back_txn_leaves_no_deltas(self, source):
        database, workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        session = workload.session
        session.execute("BEGIN")
        session.execute("UPDATE parts SET status = 'x' WHERE part_ref < 5")
        session.execute("ROLLBACK")
        assert len(extractor.drain_to_batch()) == 0

    def test_drain_clears_backlog(self, source):
        database, workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        workload.run_insert(3)
        assert len(extractor.drain_to_batch()) == 3
        assert len(extractor.drain_to_batch()) == 0

    def test_drain_refused_while_a_capturing_transaction_is_open(self, source):
        # The open transaction's rows are not committed, and its rollback
        # undoes them in the delta table: a drain that emptied the table
        # made that rollback fail on a truncated page.
        database, workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        workload.run_insert(2)
        session = workload.session
        session.execute("BEGIN")
        session.execute("UPDATE parts SET status = 'x' WHERE part_ref < 3")
        delta = database.table("parts_cdc")
        held = delta.num_rows
        with pytest.raises(ExtractionError, match="open transactions"):
            extractor.drain_to_batch()
        assert delta.num_rows == held
        session.execute("ROLLBACK")
        batch = extractor.drain_to_batch()
        assert [r.kind for r in batch] == [ChangeKind.INSERT] * 2
        assert delta.num_rows == 0

    def test_drain_after_the_open_transaction_commits(self, source):
        database, workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        session = workload.session
        session.execute("BEGIN")
        session.execute("UPDATE parts SET status = 'x' WHERE part_ref < 3")
        with pytest.raises(ExtractionError):
            extractor.drain_rows()
        session.execute("COMMIT")
        batch = extractor.drain_to_batch()
        assert [r.kind for r in batch] == [ChangeKind.UPDATE] * 3

    def test_txn_ids_recorded(self, source):
        database, workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        workload.run_update(2)
        workload.run_update(2)
        txns = {r.txn_id for r in extractor.drain_to_batch()}
        assert len(txns) == 2


class TestOverheadShape:
    def test_trigger_overhead_on_user_txn(self, source):
        database, workload = source
        base = workload.run_update(100).response_ms
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        with_trigger = workload.run_update(100).response_ms
        assert with_trigger > base * 1.5  # the Figure 2 effect


class TestExportPaths:
    def test_export_delta_table(self, source):
        database, workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        workload.run_insert(5)
        dump = export_table(database, extractor.delta_table_name)
        assert dump.num_records == 5

    def test_ascii_dump_delta_table(self, source):
        database, workload = source
        extractor = TriggerExtractor(database, "parts")
        extractor.install()
        workload.run_insert(5)
        assert extractor.ascii_dump_delta_table().num_records == 5


class TestRemoteCapture:
    def test_remote_rows_land_in_staging(self, source):
        database, workload = source
        staging = Database("staging", clock=database.clock)
        extractor = TriggerExtractor(database, "parts")
        extractor.install_remote(staging, LinkKind.LAN)
        workload.run_insert(3)
        assert staging.table("parts_cdc").num_rows == 3

    def test_remote_capture_far_more_expensive(self, source):
        database, workload = source
        base = workload.run_update(50).response_ms

        local_db = Database("local-arm", clock=database.clock)
        local_workload = OltpWorkload(local_db)
        local_workload.create_table()
        local_workload.populate(200)
        TriggerExtractor(local_db, "parts").install()
        local = local_workload.run_update(50).response_ms

        remote_db = Database("remote-arm", clock=database.clock)
        remote_workload = OltpWorkload(remote_db)
        remote_workload.create_table()
        remote_workload.populate(200)
        staging = Database("staging", clock=database.clock)
        TriggerExtractor(remote_db, "parts").install_remote(staging, LinkKind.LAN)
        remote = remote_workload.run_update(50).response_ms

        assert (remote - base) > 10 * (local - base)

    def test_local_drain_unavailable_in_remote_mode(self, source):
        database, _workload = source
        staging = Database("staging", clock=database.clock)
        extractor = TriggerExtractor(database, "parts")
        extractor.install_remote(staging, LinkKind.SAME_MACHINE)
        with pytest.raises(ExtractionError, match="remote mode"):
            extractor.drain_rows()
