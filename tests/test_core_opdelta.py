"""Tests for Op-Delta records, stores and capture."""

import pytest

from repro.core import (
    DatabaseLogStore,
    FileLogStore,
    OpDeltaCapture,
    OpKind,
    classify_statement,
)
from repro.core.opdelta import (
    OPDELTA_HEADER_BYTES,
    PARSE_CACHE,
    OpDelta,
    ParseCache,
)
from repro.engine import Database
from repro.errors import OpDeltaError
from repro.sql.parser import TEMPLATE_CAPACITY, parse
from repro.workloads import OltpWorkload


@pytest.fixture
def source():
    database = Database("od-test")
    workload = OltpWorkload(database)
    workload.create_table()
    workload.populate(200)
    return database, workload


def attach(source, store_cls):
    database, workload = source
    store = store_cls(database)
    capture = OpDeltaCapture(workload.session, store, tables={"parts"})
    capture.attach()
    return store, capture


class TestOpDeltaRecord:
    def test_classify(self):
        assert classify_statement(parse("INSERT INTO t VALUES (1)")) == (
            OpKind.INSERT, "t",
        )
        assert classify_statement(parse("UPDATE t SET a = 1")) == (OpKind.UPDATE, "t")
        assert classify_statement(parse("DELETE FROM t")) == (OpKind.DELETE, "t")

    def test_classify_rejects_select(self):
        with pytest.raises(OpDeltaError):
            classify_statement(parse("SELECT 1"))

    def test_size_independent_of_affected_rows(self):
        """The core §4.1 size argument for UPDATE/DELETE."""
        text = "UPDATE parts SET status = 'revised' WHERE part_ref < 10000"
        op = OpDelta(text, "parts", OpKind.UPDATE, 1, 1, 0.0)
        assert op.size_bytes < 128  # ~70-byte statement + header

    def test_hybrid_size_includes_before_image(self):
        text = "DELETE FROM parts WHERE part_ref < 2"
        lean = OpDelta(text, "parts", OpKind.DELETE, 1, 1, 0.0)
        hybrid = OpDelta(
            text, "parts", OpKind.DELETE, 1, 1, 0.0,
            before_image=[(1, "a"), (2, "b")],
        )
        assert hybrid.before_image is not None and hybrid.size_bytes > lean.size_bytes

    def test_lazy_reparse(self):
        op = OpDelta("DELETE FROM t WHERE a = 1", "t", OpKind.DELETE, 1, 1, 0.0)
        assert op.statement.table == "t"

    def test_wire_header_size_pinned(self):
        """Regression pin: the documented wire header is 24 bytes.

        txn_id (8) + sequence (8) + captured_at (4) + table ref (2) +
        kind/flags (2).  Changing the wire format must update both the
        constant and this test.
        """
        assert OPDELTA_HEADER_BYTES == 24
        text = "DELETE FROM t WHERE a = 1"
        op = OpDelta(text, "t", OpKind.DELETE, 1, 1, 0.0)
        assert op.size_bytes == len(text) + OPDELTA_HEADER_BYTES

    def test_local_annotations_never_ship(self):
        """``analysis`` and ``_parsed`` are process-local: size is stable."""
        text = "UPDATE t SET a = 1 WHERE b = 2"
        bare = OpDelta(text, "t", OpKind.UPDATE, 1, 1, 0.0)
        baseline = bare.size_bytes
        bare.statement  # materialise _parsed
        assert bare.size_bytes == baseline
        annotated = OpDelta(
            text, "t", OpKind.UPDATE, 1, 1, 0.0,
            analysis=object(), _parsed=parse(text),
        )
        assert annotated.size_bytes == baseline


class TestParseCache:
    """``ParseCache`` is the statement template table: keyed by shape."""

    def test_hit_and_miss_counted(self):
        cache = ParseCache()
        text = "DELETE FROM t WHERE a = 1"
        first = cache.parse(text)
        second = cache.parse(text)
        assert first == second
        assert (cache.hits, cache.misses) == (1, 1)
        # Another literal is the same shape: a hit, bound without the parser.
        third = cache.parse("DELETE FROM t WHERE a = 22")
        assert third.where.right.value == 22
        assert (cache.hits, cache.misses, len(cache)) == (2, 1, 1)

    def test_lru_eviction(self):
        cache = ParseCache()
        texts = [
            f"DELETE FROM t WHERE a{i} = 1" for i in range(TEMPLATE_CAPACITY + 1)
        ]
        for text in texts[:-1]:
            cache.parse(text)
        cache.parse(texts[0])  # refresh: texts[1] is now the LRU entry
        cache.parse(texts[-1])  # evicts texts[1]
        assert len(cache) == TEMPLATE_CAPACITY
        assert cache.lookup(texts[0]) is not None
        assert cache.lookup(texts[1]) is None

    def test_seed_avoids_reparse(self, monkeypatch):
        cache = ParseCache()
        statement = cache.parse("DELETE FROM t WHERE a = 1")
        # The shape is seeded: the grammar must not run for its next text.
        monkeypatch.setattr(
            "repro.sql.parser._Parser.parse_statement",
            lambda self: pytest.fail("a seeded shape was parsed again"),
        )
        again = cache.parse("DELETE FROM t WHERE a = 1")
        other = cache.parse("DELETE FROM t WHERE a = 7")
        assert again == statement and other != statement
        assert cache.misses == 1

    def test_opdelta_reads_through_shared_cache(self):
        text = "DELETE FROM t WHERE a = 99887766"
        parse(text)
        hits = PARSE_CACHE.hits
        op = OpDelta(text, "t", OpKind.DELETE, 1, 1, 0.0)
        op.statement
        assert PARSE_CACHE.hits == hits + 1

    def test_capture_seeds_shared_cache(self, source):
        database, workload = source
        store, capture = attach(source, FileLogStore)
        workload.session.execute("DELETE FROM parts WHERE part_ref = 123454321")
        capture.detach()
        (group,) = store.drain()
        (op,) = group.operations
        lookups = PARSE_CACHE.hits + PARSE_CACHE.misses
        assert op.statement.table == "parts"
        # The captured statement rides along: the table is not asked again.
        assert PARSE_CACHE.hits + PARSE_CACHE.misses == lookups


class TestCaptureLifecycle:
    def test_groups_follow_transactions(self, source):
        database, workload = source
        store, _capture = attach(source, FileLogStore)
        session = workload.session
        session.execute("BEGIN")
        session.execute("UPDATE parts SET status = 'a' WHERE part_ref < 3")
        session.execute("DELETE FROM parts WHERE part_ref < 1")
        session.execute("COMMIT")
        groups = store.drain()
        assert len(groups) == 1
        assert len(groups[0]) == 2
        assert groups[0].tables() == {"parts"}

    def test_autocommit_one_group_per_statement(self, source):
        store, _capture = attach(source, FileLogStore)
        _db, workload = source
        workload.run_update(2)
        workload.run_update(2)
        assert len(store.drain()) == 2

    def test_aborted_txn_produces_no_group(self, source):
        store, _capture = attach(source, FileLogStore)
        _db, workload = source
        session = workload.session
        session.execute("BEGIN")
        session.execute("UPDATE parts SET status = 'x' WHERE part_ref < 5")
        session.execute("ROLLBACK")
        assert store.drain() == []

    def test_untracked_tables_ignored(self, source):
        database, workload = source
        store = FileLogStore(database)
        capture = OpDeltaCapture(workload.session, store, tables={"other"})
        capture.attach()
        workload.run_update(2)
        assert store.drain() == []

    def test_detach_stops_capturing(self, source):
        store, capture = attach(source, FileLogStore)
        _db, workload = source
        capture.detach()
        workload.run_update(2)
        assert store.drain() == []

    def test_double_attach_rejected(self, source):
        _store, capture = attach(source, FileLogStore)
        with pytest.raises(OpDeltaError):
            capture.attach()

    def test_select_not_captured(self, source):
        store, _capture = attach(source, FileLogStore)
        _db, workload = source
        workload.session.execute("SELECT COUNT(*) FROM parts")
        assert store.drain() == []


class TestDatabaseLogStore:
    def test_rows_roll_back_with_user_txn(self, source):
        database, workload = source
        store, _capture = attach(source, DatabaseLogStore)
        session = workload.session
        session.execute("BEGIN")
        session.execute("UPDATE parts SET status = 'x' WHERE part_ref < 5")
        assert database.table("opdelta_log").num_rows > 0
        session.execute("ROLLBACK")
        assert database.table("opdelta_log").num_rows == 0

    def test_insert_text_chunked(self, source):
        database, workload = source
        store, _capture = attach(source, DatabaseLogStore)
        workload.run_insert(50)
        # One chunk row per ~100 chars of statement text: a 50-row insert
        # must need many chunk rows.
        assert database.table("opdelta_log").num_rows > 25

    def test_drain_truncates_log_table(self, source):
        store, _capture = attach(source, DatabaseLogStore)
        database, workload = source
        workload.run_update(3)
        groups = store.drain()
        assert len(groups) == 1
        assert database.table("opdelta_log").num_rows == 0


class TestFileLogStore:
    def test_commit_markers_written(self, source):
        store, _capture = attach(source, FileLogStore)
        _db, workload = source
        workload.run_update(2)
        assert any(entry.payload.endswith("COMMIT") for entry in store._entries)

    def test_aborted_entries_remain_as_garbage(self, source):
        """The non-transactionality trade-off of the file log."""
        store, _capture = attach(source, FileLogStore)
        _db, workload = source
        session = workload.session
        session.execute("BEGIN")
        session.execute("UPDATE parts SET status = 'x' WHERE part_ref < 5")
        session.execute("ROLLBACK")
        assert store.uncommitted_garbage() == 1
        assert store.drain() == []

    def test_cheaper_than_db_store_for_inserts(self, source):
        database, _workload = source

        def arm_cost(store_cls):
            arm_db = Database("arm", clock=database.clock)
            arm_workload = OltpWorkload(arm_db)
            arm_workload.create_table()
            arm_workload.populate(200)
            store = store_cls(arm_db)
            OpDeltaCapture(arm_workload.session, store, tables={"parts"}).attach()
            return arm_workload.run_insert(500).response_ms

        assert arm_cost(FileLogStore) < arm_cost(DatabaseLogStore)
