"""Tests for Table DML: indexes, triggers, WAL integration, undo."""

import pytest

from repro.engine import Database, InsertMode, TriggerEvent, TriggerTiming, Trigger
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INTEGER, char
from repro.engine.wal import LogRecordKind
from repro.errors import (
    CatalogError,
    ConstraintError,
    SchemaError,
    StorageError,
    TriggerError,
)

from .conftest import insert_parts


@pytest.fixture
def items(db, small_schema):
    return db.create_table(small_schema)


class TestInsert:
    def test_insert_and_read(self, db, items):
        txn = db.begin()
        rid = items.insert(txn, (1, "bolt", 0.10))
        db.commit(txn)
        assert items.read(rid) == (1, "bolt", 0.10)
        assert items.num_rows == 1

    def test_primary_key_unique(self, db, items):
        txn = db.begin()
        items.insert(txn, (1, "a", 1.0))
        with pytest.raises(ConstraintError):
            items.insert(txn, (1, "b", 2.0))
        db.commit(txn)
        assert items.num_rows == 1

    def test_insert_logs_after_image(self, db, items):
        txn = db.begin()
        items.insert(txn, (1, "a", 1.0))
        db.commit(txn)
        kinds = [r.kind for r in db.log.active_records()]
        assert LogRecordKind.INSERT in kinds

    def test_bulk_modes_cheaper(self, db, items):
        txn = db.begin()
        with db.clock.stopwatch() as statement_watch:
            items.insert(txn, (1, "a", 1.0), mode=InsertMode.STATEMENT)
        with db.clock.stopwatch() as bulk_watch:
            items.insert(txn, (2, "b", 1.0), mode=InsertMode.BULK_INTERNAL)
        db.commit(txn)
        assert bulk_watch.elapsed < statement_watch.elapsed

    def test_insert_many(self, db, items):
        txn = db.begin()
        count = items.insert_many(txn, [(i, "x", 1.0) for i in range(5)])
        db.commit(txn)
        assert count == 5
        assert items.num_rows == 5

    def test_validation_failure_leaves_no_row(self, db, items):
        txn = db.begin()
        with pytest.raises(SchemaError):
            items.insert(txn, (None, "a", 1.0))
        db.commit(txn)
        assert items.num_rows == 0


class TestUpdate:
    def test_update_by_assignment(self, db, items):
        txn = db.begin()
        rid = items.insert(txn, (1, "a", 1.0))
        old, new = items.update(txn, rid, {"price": 9.0})
        db.commit(txn)
        assert old[2] == 1.0 and new[2] == 9.0
        assert items.read(rid)[2] == 9.0

    def test_update_pk_maintains_index(self, db, items):
        txn = db.begin()
        rid = items.insert(txn, (1, "a", 1.0))
        items.update(txn, rid, {"item_id": 2})
        db.commit(txn)
        assert items.lookup("item_id", 1) == []
        assert items.lookup("item_id", 2)[0][1][0] == 2

    def test_update_pk_collision(self, db, items):
        txn = db.begin()
        items.insert(txn, (1, "a", 1.0))
        rid = items.insert(txn, (2, "b", 1.0))
        with pytest.raises(ConstraintError):
            items.update(txn, rid, {"item_id": 1})
        db.commit(txn)

    def test_update_same_key_value_allowed(self, db, items):
        txn = db.begin()
        rid = items.insert(txn, (1, "a", 1.0))
        items.update(txn, rid, {"item_id": 1, "price": 2.0})
        db.commit(txn)
        assert items.read(rid) == (1, "a", 2.0)

    def test_empty_assignments_rejected(self, db, items):
        txn = db.begin()
        rid = items.insert(txn, (1, "a", 1.0))
        with pytest.raises(SchemaError):
            items.update(txn, rid, {})
        db.commit(txn)


class TestDelete:
    def test_delete_removes_row_and_index_entry(self, db, items):
        txn = db.begin()
        rid = items.insert(txn, (1, "a", 1.0))
        old = items.delete(txn, rid)
        db.commit(txn)
        assert old == (1, "a", 1.0)
        assert items.num_rows == 0
        assert items.lookup("item_id", 1) == []


class TestUndo:
    def test_abort_rolls_back_insert(self, db, items):
        txn = db.begin()
        items.insert(txn, (1, "a", 1.0))
        db.abort(txn)
        assert items.num_rows == 0
        assert items.lookup("item_id", 1) == []

    def test_abort_rolls_back_update(self, db, items):
        txn = db.begin()
        rid = items.insert(txn, (1, "a", 1.0))
        db.commit(txn)
        txn = db.begin()
        items.update(txn, rid, {"price": 9.0})
        db.abort(txn)
        assert items.read(rid)[2] == 1.0

    def test_abort_rolls_back_delete(self, db, items):
        txn = db.begin()
        items.insert(txn, (1, "a", 1.0))
        db.commit(txn)
        txn = db.begin()
        rid = items.lookup("item_id", 1)[0][0]
        items.delete(txn, rid)
        db.abort(txn)
        assert items.num_rows == 1
        assert items.lookup("item_id", 1)[0][1] == (1, "a", 1.0)

    def test_abort_rolls_back_mixed_sequence(self, db, items):
        txn = db.begin()
        for i in range(5):
            items.insert(txn, (i, "x", float(i)))
        db.commit(txn)
        before = sorted(v for _r, v in items.scan())
        txn = db.begin()
        items.insert(txn, (10, "new", 1.0))
        rid = items.lookup("item_id", 2)[0][0]
        items.update(txn, rid, {"price": 99.0})
        rid = items.lookup("item_id", 3)[0][0]
        items.delete(txn, rid)
        db.abort(txn)
        assert sorted(v for _r, v in items.scan()) == before

    def test_unvalidated_overlong_char_raises_and_writes_nothing(self, db):
        # Undo re-inserts an image without validating it: a value that does
        # not fit must be refused, not cut to the column's width.
        labels = db.create_table(
            TableSchema(
                "labels",
                [Column("id", INTEGER, nullable=False), Column("label", char(12))],
                primary_key="id",
            )
        )
        with pytest.raises(StorageError, match=r"labels\.label"):
            labels._physical_reinsert((1, "x" * 13))
        assert labels.num_rows == 0
        assert list(labels.scan()) == []
        assert labels.lookup("id", 1) == []


class TestTriggersOnTable:
    def test_trigger_fires_in_same_txn_and_rolls_back(self, db, items, small_schema):
        audit = db.create_table(small_schema.renamed("audit"))
        # Audit's PK would collide; drop its unique index for this test.
        audit.drop_index("pk_audit")

        def action(ctx):
            audit.insert(ctx.transaction, ctx.new_values, fire_triggers=False)

        items.triggers.add(
            Trigger("aud", TriggerEvent.INSERT, TriggerTiming.AFTER, action)
        )
        txn = db.begin()
        items.insert(txn, (1, "a", 1.0))
        assert audit.num_rows == 1
        db.abort(txn)
        assert audit.num_rows == 0
        assert items.num_rows == 0

    def test_failing_trigger_aborts_statement(self, db, items):
        def boom(_ctx):
            raise RuntimeError("nope")

        items.triggers.add(
            Trigger("boom", TriggerEvent.INSERT, TriggerTiming.AFTER, boom)
        )
        txn = db.begin()
        with pytest.raises(TriggerError):
            items.insert(txn, (1, "a", 1.0))
        db.abort(txn)
        assert items.num_rows == 0

    def test_update_trigger_sees_both_images(self, db, items):
        seen = {}

        def capture(ctx):
            seen["old"], seen["new"] = ctx.old_values, ctx.new_values

        items.triggers.add(
            Trigger("cap", TriggerEvent.UPDATE, TriggerTiming.AFTER, capture)
        )
        txn = db.begin()
        rid = items.insert(txn, (1, "a", 1.0))
        items.update(txn, rid, {"price": 2.0})
        db.commit(txn)
        assert seen["old"][2] == 1.0 and seen["new"][2] == 2.0

    def test_fire_triggers_false_bypasses(self, db, items):
        fired = []
        items.triggers.add(
            Trigger("t", TriggerEvent.INSERT, TriggerTiming.AFTER,
                    lambda ctx: fired.append(1))
        )
        txn = db.begin()
        items.insert(txn, (1, "a", 1.0), fire_triggers=False)
        db.commit(txn)
        assert fired == []

    def test_duplicate_trigger_name(self, db, items):
        trig = Trigger("t", TriggerEvent.INSERT, TriggerTiming.AFTER, lambda c: None)
        items.triggers.add(trig)
        with pytest.raises(CatalogError):
            items.triggers.add(trig)


class TestAutoTimestamp:
    def test_insert_stamps_null_timestamp(self, parts_db):
        insert_parts(parts_db, 1)
        row = next(iter(parts_db.table("parts").scan()))[1]
        ts_index = parts_db.table("parts").schema.column_index("last_modified")
        assert row[ts_index] is not None

    def test_update_restamps(self, parts_db):
        insert_parts(parts_db, 1)
        table = parts_db.table("parts")
        rid, row = next(iter(table.scan()))
        ts_index = table.schema.column_index("last_modified")
        original = row[ts_index]
        txn = parts_db.begin()
        table.update(txn, rid, {"status": "revised"})
        parts_db.commit(txn)
        assert table.read(rid)[ts_index] > original

    def test_explicit_timestamp_honoured_on_insert(self, parts_db):
        table = parts_db.table("parts")
        txn = parts_db.begin()
        row = list(
            __import__("repro.workloads", fromlist=["PartsGenerator"])
            .PartsGenerator().row(1)
        )
        ts_index = table.schema.column_index("last_modified")
        row[ts_index] = 777.0
        rid = table.insert(txn, tuple(row))
        parts_db.commit(txn)
        assert table.read(rid)[ts_index] == 777.0


class TestScanAndIndexes:
    def test_scan_returns_all(self, db, items):
        txn = db.begin()
        for i in range(20):
            items.insert(txn, (i, "x", float(i)))
        db.commit(txn)
        assert len(list(items.scan())) == 20

    def test_scan_and_read_narrow_to_the_requested_columns(self, db, items):
        txn = db.begin()
        row_ids = [items.insert(txn, (i, None, float(i))) for i in range(20)]
        db.commit(txn)
        scanned = db.metrics.counter("engine.table.rows_scanned", db="test")
        before = scanned.value

        def costed(columns):
            start = db.clock.now
            rows = list(items.scan(columns))
            return rows, db.clock.now - start

        full, full_cost = costed(None)
        narrow, narrow_cost = costed((0, 2))
        nothing, nothing_cost = costed(())
        assert narrow == [(rid, (v[0], v[2])) for rid, v in full]
        assert [v for _rid, v in nothing] == [()] * 20
        assert items.read(row_ids[3], (1, 2)) == (None, 3.0)
        # A scan costs the same, and counts the same, whatever it decodes.
        assert narrow_cost == pytest.approx(full_cost, rel=1e-9)
        assert nothing_cost == pytest.approx(full_cost, rel=1e-9)
        assert scanned.value - before == 60

    def test_create_index_builds_from_existing(self, db, items):
        txn = db.begin()
        for i in range(10):
            items.insert(txn, (i, f"n{i % 3}", float(i)))
        db.commit(txn)
        items.create_index("by_name", "name", kind="hash")
        assert len(items.lookup("name", "n0")) == 4

    def test_drop_index(self, db, items):
        items.create_index("by_name", "name")
        items.drop_index("by_name")
        with pytest.raises(CatalogError):
            items.index("by_name")

    def test_truncate_resets_indexes(self, db, items):
        txn = db.begin()
        items.insert(txn, (1, "a", 1.0))
        db.commit(txn)
        items.truncate()
        assert items.num_rows == 0
        # PK reusable after truncate.
        txn = db.begin()
        items.insert(txn, (1, "a", 1.0))
        db.commit(txn)
