"""Tests for the Database facade: catalog, transactions, checkpoints."""

import pytest

from repro.engine import Database
from repro.errors import CatalogError, TransactionError
from repro.workloads import parts_schema

from .conftest import insert_parts


class TestCatalog:
    def test_create_and_lookup(self, db, small_schema):
        table = db.create_table(small_schema)
        assert db.table("items") is table
        assert db.has_table("items")
        assert "items" in db.table_names

    def test_duplicate_table_rejected(self, db, small_schema):
        db.create_table(small_schema)
        with pytest.raises(CatalogError, match="already exists"):
            db.create_table(small_schema)

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError, match="does not exist"):
            db.table("ghost")

    def test_primary_key_gets_unique_index(self, db, small_schema):
        table = db.create_table(small_schema)
        assert table.index("pk_items").unique

    def test_drop_table(self, db, small_schema):
        db.create_table(small_schema)
        db.drop_table("items")
        assert not db.has_table("items")

    def test_tables_iterator(self, db, small_schema):
        db.create_table(small_schema)
        db.create_table(small_schema.renamed("items2"))
        assert {t.name for t in db.tables()} == {"items", "items2"}


class TestTransactions:
    def test_commit_counts(self, db):
        txn = db.begin()
        db.commit(txn)
        assert db.metrics.value("engine.txn.commit", db="test") == 1

    def test_double_commit_rejected(self, db):
        txn = db.begin()
        db.commit(txn)
        with pytest.raises(TransactionError):
            db.commit(txn)

    def test_abort_then_commit_rejected(self, db):
        txn = db.begin()
        db.abort(txn)
        with pytest.raises(TransactionError):
            db.commit(txn)

    def test_active_transactions_tracked(self, db):
        txn = db.begin()
        assert txn.is_active
        db.commit(txn)
        assert not txn.is_active


class TestCheckpoint:
    def test_checkpoint_flushes_and_rotates(self):
        database = Database("ckpt", archive_mode=True)
        database.create_table(parts_schema())
        insert_parts(database, 50)
        database.checkpoint()
        assert len(database.log.drain_archive()) == 1
        # A second checkpoint with no activity still closes a (tiny) segment.
        database.checkpoint()
        assert len(database.log.drain_archive()) == 1

    def test_checkpoint_makes_pages_clean(self):
        database = Database("ckpt2")
        database.create_table(parts_schema())
        insert_parts(database, 50)
        database.checkpoint()
        assert database.buffer_pool.flush_all() == 0


class TestSharedClock:
    def test_databases_can_share_one_clock(self):
        first = Database("a")
        second = Database("b", clock=first.clock)
        before = first.clock.now
        second.connect()  # charges the shared clock
        assert first.clock.now > before

    def test_private_clock_by_default(self):
        first = Database("a")
        second = Database("b")
        second.connect()
        assert first.clock.now == 0.0
