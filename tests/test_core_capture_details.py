"""Detail tests: hybrid before images, store chunking, failure injection."""

import pytest

from repro.core import (
    AlwaysHybridPolicy,
    DatabaseLogStore,
    FileLogStore,
    OpDeltaCapture,
)
from repro.core.stores import DB_LOG_CHUNK_CHARS
from repro.engine import Database, Trigger, TriggerEvent, TriggerTiming
from repro.errors import TriggerError
from repro.workloads import OltpWorkload


@pytest.fixture
def source():
    database = Database("cap-detail")
    workload = OltpWorkload(database)
    workload.create_table()
    workload.populate(120)
    return database, workload


class TestHybridBeforeImages:
    def test_before_image_is_presubmit_state(self, source):
        database, workload = source
        store = FileLogStore(database)
        OpDeltaCapture(
            workload.session, store, tables={"parts"},
            hybrid_policy=AlwaysHybridPolicy(),
        ).attach()
        status_index = database.table("parts").schema.column_index("status")
        pre_change = {
            row[0]: row[status_index]
            for _rid, row in database.table("parts").scan()
            if row[1] < 10
        }
        workload.run_update(10, assignment="status = 'mutated'")
        (group,) = store.drain()
        (op,) = group.operations
        assert op.before_image is not None and len(op.before_image) == 10
        for row in op.before_image:
            assert row[status_index] == pre_change[row[0]]
            assert row[status_index] != "mutated"

    def test_before_image_rows_match_predicate(self, source):
        database, workload = source
        store = FileLogStore(database)
        OpDeltaCapture(
            workload.session, store, tables={"parts"},
            hybrid_policy=AlwaysHybridPolicy(),
        ).attach()
        workload.session.execute(
            "DELETE FROM parts WHERE part_ref >= 20 AND part_ref < 25"
        )
        (group,) = store.drain()
        (op,) = group.operations
        refs = sorted(row[1] for row in op.before_image)
        assert refs == [20, 21, 22, 23, 24]

    def test_inserts_never_fetch_before_images(self, source):
        database, workload = source
        store = FileLogStore(database)
        capture = OpDeltaCapture(
            workload.session, store, tables={"parts"},
            hybrid_policy=AlwaysHybridPolicy(),
        )
        capture.attach()
        workload.run_insert(5)
        (group,) = store.drain()
        assert group.operations[0].before_image is None
        assert capture.before_images_captured == 0

    def test_wrapper_reads_not_recaptured(self, source):
        """The capture's own before-image SELECT must not recurse."""
        database, workload = source
        store = FileLogStore(database)
        capture = OpDeltaCapture(
            workload.session, store, tables={"parts"},
            hybrid_policy=AlwaysHybridPolicy(),
        )
        capture.attach()
        workload.run_update(5)
        assert capture.operations_captured == 1
        assert capture.before_images_captured == 1


class TestDbLogChunking:
    def test_long_statement_spans_chunks(self, source):
        database, workload = source
        store = DatabaseLogStore(database)
        OpDeltaCapture(workload.session, store, tables={"parts"}).attach()
        long_status = "s" * 8
        workload.session.execute(
            "UPDATE parts SET status = '" + long_status + "', "
            "description = 'a very long descriptive text value here', "
            "price = price * 1.0001 "
            "WHERE part_ref >= 0 AND part_ref < 3 AND quantity >= 0"
        )
        rows = [v for _r, v in database.table("opdelta_log").scan()]
        assert len(rows) >= 2  # statement longer than one chunk
        # Reassembling the chunks yields the original statement.
        rows.sort(key=lambda r: (r[0], r[2]))
        text = "".join(row[5] for row in rows)
        assert text.startswith("UPDATE parts SET")
        assert "quantity >= 0" in text

    def test_chunk_width_respected(self, source):
        database, workload = source
        store = DatabaseLogStore(database)
        OpDeltaCapture(workload.session, store, tables={"parts"}).attach()
        workload.run_insert(30)
        for _rid, row in database.table("opdelta_log").scan():
            assert len(row[5]) <= DB_LOG_CHUNK_CHARS


class TestFailureInjection:
    def test_trigger_failing_mid_statement_rolls_back_all_rows(self, source):
        database, workload = source
        table = database.table("parts")
        fired = {"count": 0}

        def flaky(_ctx):
            fired["count"] += 1
            if fired["count"] == 7:
                raise RuntimeError("disk full")

        table.triggers.add(
            Trigger("flaky", TriggerEvent.UPDATE, TriggerTiming.AFTER, flaky)
        )
        before = sorted(v for _r, v in table.scan())
        with pytest.raises(TriggerError):
            workload.session.execute(
                "UPDATE parts SET status = 'x' WHERE part_ref < 20"
            )
        after = sorted(v for _r, v in table.scan())
        assert before == after  # rows 1-6 rolled back with the statement
        assert fired["count"] == 7

    def test_capture_store_failure_aborts_user_txn(self, source):
        database, workload = source

        class ExplodingStore(FileLogStore):
            def _persist(self, op, txn):
                raise RuntimeError("log device failed")

        OpDeltaCapture(
            workload.session, ExplodingStore(database), tables={"parts"}
        ).attach()
        before = database.table("parts").num_rows
        with pytest.raises(RuntimeError):
            workload.session.execute(
                "DELETE FROM parts WHERE part_ref < 5"
            )
        assert database.table("parts").num_rows == before

    def test_store_records_rejected_on_inactive_txn(self, source):
        from repro.core.opdelta import OpDelta, OpKind
        from repro.errors import OpDeltaError

        database, _workload = source
        store = FileLogStore(database)
        txn = database.begin()
        database.commit(txn)
        op = OpDelta("DELETE FROM parts", "parts", OpKind.DELETE, txn.txn_id, 1, 0.0)
        with pytest.raises(OpDeltaError):
            store.record(op, txn)
