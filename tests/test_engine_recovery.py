"""Tests for redo recovery from archived WAL segments."""

import pytest

from repro.engine import Database, clone_schemas, recover_from_archive
from repro.errors import RecoveryError
from repro.workloads import OltpWorkload, parts_schema, strip_timestamp


@pytest.fixture
def archived_source():
    database = Database("rec-src", archive_mode=True)
    workload = OltpWorkload(database)
    workload.create_table()
    workload.populate(300)
    workload.run_update(40)
    workload.run_delete(20, top_up=False)
    workload.run_insert(10)
    database.checkpoint()
    return database


def logical_rows(database):
    return strip_timestamp(
        parts_schema(), (v for _r, v in database.table("parts").scan())
    )


class TestRecovery:
    def test_full_replay_recreates_state(self, archived_source):
        target = Database("standby", clock=archived_source.clock)
        clone_schemas(archived_source, target)
        applied = recover_from_archive(
            target, archived_source.log.drain_archive()
        )
        assert applied > 0
        assert sorted(
            v for _r, v in target.table("parts").scan()
        ) == sorted(v for _r, v in archived_source.table("parts").scan())

    def test_replay_preserves_physical_addresses(self, archived_source):
        target = Database("standby", clock=archived_source.clock)
        clone_schemas(archived_source, target)
        recover_from_archive(target, archived_source.log.drain_archive())
        source_rids = {rid for rid, _v in archived_source.table("parts").scan()}
        target_rids = {rid for rid, _v in target.table("parts").scan()}
        assert source_rids == target_rids

    def test_aborted_transactions_not_replayed(self):
        database = Database("rec-src", archive_mode=True)
        workload = OltpWorkload(database)
        workload.create_table()
        workload.populate(50)
        session = database.internal_session()
        session.execute("BEGIN")
        session.execute("DELETE FROM parts WHERE part_ref < 10")
        session.execute("ROLLBACK")
        database.checkpoint()
        target = Database("standby", clock=database.clock)
        clone_schemas(database, target)
        recover_from_archive(target, database.log.drain_archive())
        assert target.table("parts").num_rows == 50

    def test_missing_table_rejected(self, archived_source):
        target = Database("standby", clock=archived_source.clock)
        with pytest.raises(RecoveryError, match="does not exist"):
            recover_from_archive(target, archived_source.log.drain_archive())

    def test_cross_product_rejected(self, archived_source):
        target = Database(
            "standby", clock=archived_source.clock, product="OtherDB"
        )
        clone_schemas(archived_source, target)
        with pytest.raises(Exception, match="cross-product"):
            recover_from_archive(target, archived_source.log.drain_archive())

    def test_out_of_order_segments_rejected(self, archived_source):
        target = Database("standby", clock=archived_source.clock)
        clone_schemas(archived_source, target)
        segments = archived_source.log.drain_archive()
        with pytest.raises(RecoveryError, match="out of order"):
            recover_from_archive(target, list(reversed(segments)) + segments)

    def test_clone_schemas_rejects_divergent_existing(self, archived_source, small_schema):
        target = Database("standby", clock=archived_source.clock)
        target.create_table(small_schema.renamed("parts"))
        with pytest.raises(RecoveryError, match="different schema"):
            clone_schemas(archived_source, target)

    def test_logical_equality_helper(self, archived_source):
        # Sanity check for the comparison helper used across the suite.
        target = Database("standby", clock=archived_source.clock)
        clone_schemas(archived_source, target)
        recover_from_archive(target, archived_source.log.drain_archive())
        assert logical_rows(target) == logical_rows(archived_source)
