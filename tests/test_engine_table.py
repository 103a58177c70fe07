"""Tests for Table DML: indexes, triggers, WAL integration, undo."""

import pytest

from repro.engine import (
    Database,
    InsertMode,
    Trigger,
    TriggerEvent,
    TriggerTiming,
    clone_schemas,
    recover_from_archive,
)
from repro.engine.rows import RowId, encode_row
from repro.engine.schema import Column, TableSchema
from repro.engine.types import FLOAT, INTEGER, char
from repro.engine.wal import LogRecordKind
from repro.errors import (
    CatalogError,
    ConstraintError,
    SchemaError,
    StorageError,
    TransactionError,
    TriggerError,
)
from repro.workloads import parts_schema

from .conftest import insert_parts
from .reference_scan import rowwise


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
        kinds = [r.kind for r in db.log._active]
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

    @staticmethod
    def five_parts():
        database = Database("undo-parts")
        database.create_table(parts_schema())
        insert_parts(database, 5, start_id=1)
        return database.table("parts"), database.internal_session()

    def test_abort_of_an_update_then_delete_puts_the_row_back_where_it_was(self):
        # The delete's undo once re-inserted the updated row in the first
        # free slot, so the update's undo overwrote whatever held the old one.
        table, session = self.five_parts()
        before = list(table.scan())
        session.execute("BEGIN")
        session.execute("UPDATE parts SET quantity = 9 WHERE part_id = 3")
        session.execute("DELETE FROM parts WHERE part_id = 1")
        session.execute("DELETE FROM parts WHERE part_id = 3")
        session.execute("ROLLBACK")
        assert list(table.scan()) == before
        [(quantity,)] = session.execute(
            "SELECT quantity FROM parts WHERE part_id = 3"
        ).rows
        assert quantity == dict((v[0], v[5]) for _r, v in before)[3]

    def test_abort_of_an_insert_then_delete_takes_the_row_out_again(self):
        table, session = self.five_parts()
        before = list(table.scan())
        session.execute("BEGIN")
        session.execute(
            "INSERT INTO parts VALUES (100, 100, 'PN-X', 'd', 'new', 1, 1.0, NULL, 1)"
        )
        session.execute("DELETE FROM parts WHERE part_id = 1")
        session.execute("DELETE FROM parts WHERE part_id = 100")
        session.execute("ROLLBACK")
        assert list(table.scan()) == before
        assert table.lookup("part_id", 100) == []

    def test_a_duplicate_key_after_deletes_aborts_with_a_constraint_error(self):
        # The failed INSERT aborts the transaction, whose undo runs both
        # deletes' re-inserts before the inserts' removals.
        database = Database("undo-duplicate")
        table = database.create_table(parts_schema())
        session = database.internal_session()
        session.execute("BEGIN")
        for key in range(1, 5):
            session.execute(
                f"INSERT INTO parts VALUES ({key}, {key}, 'PN', 'd', 'new', 1, "
                "1.0, NULL, 1)"
            )
        session.execute("DELETE FROM parts WHERE part_id = 1")
        session.execute("DELETE FROM parts WHERE part_id = 2")
        with pytest.raises(ConstraintError, match="duplicate key 3"):
            session.execute(
                "INSERT INTO parts VALUES (3, 3, 'PN', 'd', 'new', 1, 1.0, NULL, 1)"
            )
        assert not session.in_transaction
        assert table.num_rows == 0 and list(table.scan()) == []

    def test_an_out_of_range_number_for_a_float_column_is_a_schema_error(self):
        database = Database("float-range")
        table = database.create_table(parts_schema())
        session = database.internal_session()
        huge = "1" + "0" * 400
        with pytest.raises(SchemaError, match=f"FLOAT value out of range: {huge}"):
            session.execute(
                f"INSERT INTO parts VALUES (1, 1, 'a', 'b', 'new', 5, {huge}, NULL, 3)"
            )
        assert not session.in_transaction
        assert table.num_rows == 0

    def test_unvalidated_overlong_char_raises_and_writes_nothing(self, db):
        # The codec is handed values nothing validated: a value that does
        # not fit must be refused, not cut to the column's width.
        labels = db.create_table(
            TableSchema(
                "labels",
                [Column("id", INTEGER, nullable=False), Column("label", char(12))],
                primary_key="id",
            )
        )
        with pytest.raises(StorageError, match=r"labels\.label"):
            labels.redo_insert(RowId(0, 0), encode_row(labels.schema, (1, "x" * 13)))
        assert labels.num_rows == 0
        assert list(labels.scan()) == []
        assert labels.lookup("id", 1) == []


class TestTriggersOnTable:
    def test_trigger_fires_in_same_txn_and_rolls_back(self, db, items, small_schema):
        # No primary key: an audit row per insert, duplicates and all.
        audit = db.create_table(TableSchema("audit", small_schema.columns))

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

    def test_an_update_that_assigns_the_timestamp_is_not_restamped(self, parts_db):
        insert_parts(parts_db, 2)
        table = parts_db.table("parts")
        ts_index = table.schema.column_index("last_modified")
        (first, _), (second, _) = list(table.scan())
        txn = parts_db.begin()
        _old, cleared = table.update(txn, first, {"last_modified": None})
        _old, pinned = table.update(txn, second, {"last_modified": 5.0})
        parts_db.commit(txn)
        # The record written is the row returned: NULL stays NULL, 5.0 stays.
        assert table.read(first) == cleared and cleared[ts_index] is None
        assert table.read(second) == pinned and pinned[ts_index] == 5.0

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
        items.create_index("by_name", "name")
        assert len(items.lookup("name", "n0")) == 4

    def test_the_b_tree_is_the_one_index_kind(self, items):
        with pytest.raises(CatalogError, match="unknown index kind 'hash'"):
            items.create_index("by_name", "name", kind="hash")
        assert items.create_index("by_name", "name", kind="btree").column == "name"

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


class TestCharValuesAreIndexedAsTheyReadBack:
    """A CHAR value is stored space padded and read back without trailing
    spaces, so what is indexed, checked for uniqueness and handed to a
    trigger must be that value too — on the one-pass and the checked path."""

    @staticmethod
    def _padded(unique=False):
        db = Database("char")
        session = db.connect()
        session.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, c CHAR(5))")
        unique = "UNIQUE " if unique else ""
        session.execute(f"CREATE {unique}INDEX ux ON u (c)")
        return db, session

    def test_an_index_finds_what_a_scan_finds(self):
        _db, session = self._padded()
        session.execute("INSERT INTO u VALUES (1, 'ab ')")
        session.execute("INSERT INTO u VALUES (2, 'ab')")
        through_index = session.execute("SELECT id FROM u WHERE c = 'ab'")
        assert "index(ux)" in through_index.plan
        assert sorted(through_index.rows) == [(1,), (2,)]
        assert sorted(session.query("SELECT id FROM u WHERE c >= 'ab'")) == [(1,), (2,)]

    def test_a_padded_row_deletes_and_updates(self):
        db, session = self._padded()
        session.execute("INSERT INTO u VALUES (1, 'ab ')")
        session.execute("INSERT INTO u VALUES (2, 'ab')")
        session.execute("UPDATE u SET c = 'cd  ' WHERE id = 2")
        assert session.execute("DELETE FROM u WHERE id = 1").rows_affected == 1
        assert session.query("SELECT id, c FROM u WHERE c = 'cd'") == [(2, "cd")]
        assert db.table("u").index("ux").num_entries == 1

    def test_a_unique_index_refuses_the_padded_twin(self):
        _db, session = self._padded(unique=True)
        session.execute("INSERT INTO u VALUES (1, 'ab ')")
        with pytest.raises(ConstraintError):
            session.execute("INSERT INTO u VALUES (2, 'ab')")

    def test_both_admission_paths_strip_the_pad(self):
        schema = TableSchema(
            "u", [Column("i", INTEGER), Column("c", char(5)), Column("x", FLOAT)]
        )
        one_pass, record = schema.admit((1, "ab  ", 1.0))  # declined: padded
        assert one_pass == (1, "ab", 1.0) == schema.codec.decode(record)
        checked, record = schema.admit((2, "  ", 3))  # an int for a FLOAT
        assert checked == (2, "", 3.0) == schema.codec.decode(record)

    def test_a_trigger_sees_the_stored_value(self, db, small_schema):
        table = db.create_table(small_schema)
        seen = []
        table.triggers.add(
            Trigger(
                "t", TriggerEvent.INSERT, TriggerTiming.AFTER,
                lambda context: seen.append(context.new_values),
            )
        )
        txn = db.begin()
        row_id = table.insert(txn, (1, "ab ", 1.0))
        db.commit(txn)
        assert seen == [table.read(row_id)] == [(1, "ab", 1.0)]


class TestIndexMaintenanceIsAllOrNothing:
    """A row whose index maintenance raises leaves heap, every index and the
    row count as they were; and a NULL key does not make it raise."""

    @staticmethod
    def _session():
        session = Database("test").internal_session()
        session.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)")
        session.execute("INSERT INTO t VALUES (1, 10)")
        return session

    @staticmethod
    def _state(table):
        indexes = {
            name: (
                table.index(name).num_entries,
                list(table.index(name)._null_keyed),
                [table.index(name).lookup(key) for key in (1, 2, 3, 10, 20, 30)],
            )
            for name in table._indexes
        }
        return list(table._heap.scan()), indexes, table.num_rows

    def test_a_null_key_is_indexed_like_any_other(self):
        session = self._session()
        session.execute("CREATE INDEX ib ON t (b)")
        # The B-tree raised a bare TypeError from bisect here, and left the
        # row of the failed statement in the heap and in pk_t.
        session.execute("INSERT INTO t VALUES (2, NULL)")
        session.execute("INSERT INTO t VALUES (3, NULL)")
        assert session.query("SELECT * FROM t") == [(1, 10), (2, None), (3, None)]
        by_key = session.execute("SELECT a FROM t WHERE b = 10")
        assert (by_key.plan, by_key.rows) == ("t:index(ib)", [(1,)])
        session.execute("UPDATE t SET b = 20 WHERE a = 2")
        session.execute("UPDATE t SET b = NULL WHERE a = 1")
        session.execute("DELETE FROM t WHERE a = 3")
        assert session.query("SELECT * FROM t") == [(1, None), (2, 20)]
        index = session.database.table("t").index("ib")
        assert index.num_entries == 2
        assert index.lookup(20) == [RowId(0, 1)] and index.lookup(10) == []

    @pytest.fixture(params=["btree"])
    def refusing(self, monkeypatch):
        """A table whose second index refuses the key 30."""
        session = self._session()
        table = session.database.table("t")
        index = table.create_index("ib", "b")
        placed = index.insert

        def refuse_thirty(key, row_id):
            if key == 30:
                raise RuntimeError("refused")
            placed(key, row_id)

        monkeypatch.setattr(index, "insert", refuse_thirty)
        return session, table

    def test_a_refused_insert_leaves_no_row(self, refusing):
        session, table = refusing
        before = self._state(table)
        with pytest.raises(RuntimeError, match="refused"):
            session.execute("INSERT INTO t VALUES (2, 30)")
        assert self._state(table) == before
        assert session.query("SELECT * FROM t") == [(1, 10)]
        # Nothing of the failed statement is in pk_t: the key is free.
        session.execute("INSERT INTO t VALUES (2, 20)")
        assert session.query("SELECT * FROM t") == [(1, 10), (2, 20)]

    def test_a_refused_key_change_leaves_the_row_as_it_was(self, refusing):
        session, table = refusing
        session.execute("INSERT INTO t VALUES (2, 20)")
        before = self._state(table)
        with pytest.raises(RuntimeError, match="refused"):
            # Both keys change: pk_t has moved the row when ib refuses.
            session.execute("UPDATE t SET a = 3, b = 30 WHERE a = 2")
        assert self._state(table) == before
        assert session.query("SELECT * FROM t WHERE a = 2") == [(2, 20)]
        assert session.query("SELECT * FROM t WHERE a = 3") == []
        session.execute("UPDATE t SET a = 3, b = 3 WHERE a = 2")
        assert session.query("SELECT * FROM t") == [(1, 10), (3, 3)]


def _holey_table(small_schema, rows=700):
    """A table of several pages with freed slots in each."""
    database = Database("test")
    table = database.create_table(small_schema)
    txn = database.begin()
    row_ids = [
        table.insert(txn, (i, None if i % 11 == 0 else f"n{i % 7}", float(i)))
        for i in range(rows)
    ]
    for row_id in row_ids[::5]:
        table.delete(txn, row_id)
    database.commit(txn)
    assert len(table._heap.page_numbers) >= 3
    return database, table


class TestFilteringScan:
    """``Table.scan(columns, keep)``: the filter runs on each page of the one
    heap walk, before a RowId exists; cost and count are per record examined."""

    @pytest.mark.parametrize("columns", [None, (0, 2), (1,)])
    def test_yields_what_an_unfiltered_scan_yields_for_the_kept_rows(
        self, small_schema, columns
    ):
        _database, table = _holey_table(small_schema)

        def keep(values):
            return values[-1] is not None and str(values[-1]) > "2"

        kept = list(table.scan(columns, rowwise(keep)))
        assert kept == [pair for pair in table.scan(columns) if keep(pair[1])]
        assert 0 < len(kept) < table.num_rows

    def test_costs_and_counts_what_an_unfiltered_scan_does(self, small_schema):
        (filtered_db, filtered), (plain_db, plain) = (
            _holey_table(small_schema), _holey_table(small_schema)
        )
        assert filtered_db.clock.now == plain_db.clock.now
        assert list(filtered.scan((0,), rowwise(lambda values: values[0] % 9 == 0)))
        assert len(list(plain.scan((0,)))) == plain.num_rows
        # Bit-equal, not approximately: one advance per record on both sides.
        assert filtered_db.clock.now == plain_db.clock.now

        def scanned(database):
            return database.metrics.counter("engine.table.rows_scanned", db="test")

        assert scanned(filtered_db).value == scanned(plain_db).value == plain.num_rows

    def test_a_raising_keep_propagates_and_the_examined_records_count(
        self, small_schema
    ):
        database, table = _holey_table(small_schema)
        scanned = database.metrics.counter("engine.table.rows_scanned", db="test")
        seen = []

        def keep(values):
            seen.append(values)
            if len(seen) == 300:  # on the second page
                raise ValueError("refused")
            return True

        before = scanned.value
        with pytest.raises(ValueError, match="refused"):
            list(table.scan(None, rowwise(keep)))
        assert scanned.value - before == 300

    def test_a_scan_that_keeps_nothing_builds_no_row_id(
        self, small_schema, monkeypatch
    ):
        from repro.engine import table as table_module

        _database, table = _holey_table(small_schema)
        row_id_class = table_module.RowId
        built = []

        def counting_row_id(page_no, slot_no):
            built.append((page_no, slot_no))
            return row_id_class(page_no, slot_no)

        # The name ``Table.scan`` resolves when it builds a row's address.
        monkeypatch.setattr(table_module, "RowId", counting_row_id)
        assert list(table.scan((0,), lambda rows: [])) == []
        assert built == []
        low = rowwise(lambda values: values[0] < 3)
        assert len(list(table.scan((0,), low))) == len(built) == 2

    def test_insert_select_from_the_table_it_fills_terminates(self, small_schema):
        database, table = _holey_table(small_schema)
        before = sorted(values for _rid, values in table.scan())
        session = database.internal_session()
        result = session.execute(
            "INSERT INTO items SELECT item_id + 1000, name, price FROM items "
            "WHERE price >= 0"
        )
        assert result.rows_affected == len(before)
        after = sorted(
            table.scan_values(keep=rowwise(lambda v: v[0] >= 1000))
        )
        assert after == [(k + 1000, name, price) for k, name, price in before]
        assert table.num_rows == 2 * len(before)


# ---------------------------------------------------------------- batch DML
#: One mixed script, as (entry, items) statements.  Row ids are resolved by
#: primary key at run time so the same script drives both entry families.
BATCH_SCRIPT = (
    ("insert", [(i, f"n{i % 3}", float(i)) for i in range(1, 7)]),
    ("update", [(1, {"price": 9.5}), (2, {"name": "moved"}), (3, {"item_id": 30})]),
    ("delete", [4, 5]),
    ("insert", [(7, "n1", 7.0), (8, "reuse", 8.0)]),
    ("update", [(30, {"name": "n0", "price": 0.5})]),
    ("delete", [1]),
)


def _scripted_table(name, small_schema):
    """A fresh table with a unique, a secondary index and row triggers."""
    database = Database(name)
    table = database.create_table(small_schema)
    table.create_index("by_name", "name")
    firings = []
    for event in TriggerEvent:
        for timing in TriggerTiming:
            table.triggers.add(
                Trigger(
                    f"{event.value}-{timing.value}", event, timing,
                    lambda ctx: firings.append(
                        (ctx.event, ctx.old_values, ctx.new_values)
                    ),
                )
            )
    return database, table, firings


def _run_script(table, txn, batch, script=BATCH_SCRIPT):
    """Run ``script`` through the row or the batch entries; returns results."""

    def rid(key):
        return table.lookup("item_id", key)[0][0]

    results = []
    for entry, items in script:
        if entry == "insert":
            results.append(
                table.insert_batch(txn, items) if batch
                else [table.insert(txn, row) for row in items]
            )
        elif entry == "update":
            targets = [(rid(key), assignments) for key, assignments in items]
            results.append(
                table.update_batch(txn, targets) if batch
                else [table.update(txn, *target) for target in targets]
            )
        else:
            row_ids = [rid(key) for key in items]
            results.append(
                table.delete_batch(txn, row_ids) if batch
                else [table.delete(txn, row_id) for row_id in row_ids]
            )
    return results


def _physical_state(table):
    """Heap records by RowId, and every index's entries for the live keys."""
    heap = list(table._heap.scan())
    indexes = {}
    for name in table._indexes:
        index, position = table.index(name), table._key_position[name]
        keys = sorted({values[position] for _rid, values in table.scan()})
        indexes[name] = (
            index.num_entries, [(key, index.lookup(key)) for key in keys]
        )
    return heap, indexes


def _wal(database):
    return [
        (r.kind, r.row_id, r.before, r.after)
        for r in database.log._active
    ]


class TestInactiveTransaction:
    """A write through a committed or aborted transaction raises before it
    charges the clock or changes the heap, an index, the WAL or a trigger."""

    WRITES = {
        "insert": lambda table, txn, rid: table.insert(txn, (9, "n9", 9.0)),
        "update": lambda table, txn, rid: table.update(txn, rid, {"name": "z"}),
        "delete": lambda table, txn, rid: table.delete(txn, rid),
        "insert_batch": lambda table, txn, rid: table.insert_batch(
            txn, [(9, "n9", 9.0)]
        ),
        "update_batch": lambda table, txn, rid: table.update_batch(
            txn, [(rid, {"name": "z"})]
        ),
        "delete_batch": lambda table, txn, rid: table.delete_batch(txn, [rid]),
    }

    @pytest.mark.parametrize("write", sorted(WRITES))
    @pytest.mark.parametrize("end", ["commit", "abort"])
    def test_nothing_is_charged_or_changed(self, small_schema, write, end):
        database, table, firings = _scripted_table("ended", small_schema)
        txn = database.begin()
        rid = table.insert(txn, (1, "n1", 1.0))
        getattr(database, end)(txn)
        state, wal, fired = _physical_state(table), _wal(database), list(firings)
        now = database.clock.now  # reading the state charges a scan

        with pytest.raises(TransactionError, match="not ACTIVE"):
            self.WRITES[write](table, txn, rid)
        assert database.clock.now == now
        assert _physical_state(table) == state
        assert _wal(database) == wal
        assert firings == fired


class TestBatchEntries:
    def test_row_and_batch_entries_are_the_same_mutation(self, small_schema):
        row_db, row_table, row_firings = _scripted_table("row", small_schema)
        batch_db, batch_table, batch_firings = _scripted_table("batch", small_schema)
        assert row_db.clock.now == batch_db.clock.now

        # The seeding insert commits; the rest of the script runs in a second
        # transaction that is rolled back at the end.
        seed, rest = BATCH_SCRIPT[:1], BATCH_SCRIPT[1:]
        row_start, batch_start = row_db.clock.now, batch_db.clock.now
        row_txn, batch_txn = row_db.begin(), batch_db.begin()
        row_results = _run_script(row_table, row_txn, False, seed)
        batch_results = _run_script(batch_table, batch_txn, True, seed)
        row_db.commit(row_txn)
        batch_db.commit(batch_txn)
        row_txn, batch_txn = row_db.begin(), batch_db.begin()
        row_results += _run_script(row_table, row_txn, False, rest)
        batch_results += _run_script(batch_table, batch_txn, True, rest)
        row_ms = row_db.clock.now - row_start
        batch_ms = batch_db.clock.now - batch_start

        assert row_results == batch_results
        assert row_firings == batch_firings and row_firings
        assert _wal(row_db) == _wal(batch_db)
        assert _physical_state(row_table) == _physical_state(batch_table)

        # The clocks differ by exactly the two modelled terms: per-row CPU
        # at the columnar factor, and one group append per statement.
        costs = row_db.costs
        row_cpu = {
            "insert": costs.row_insert_cpu,
            "update": costs.row_update_cpu,
            "delete": costs.row_delete_cpu,
        }
        changes = [r for r in row_db.log._active if r.is_data_change()]
        expected = 0.0
        for entry, items in BATCH_SCRIPT:
            records, changes = changes[: len(items)], changes[len(items):]
            payload = sum(r.payload_bytes for r in records)
            expected += len(items) * row_cpu[entry] * (1 - costs.columnar_cpu_factor)
            expected += sum(costs.log_append(r.payload_bytes) for r in records)
            expected -= costs.log_append_batch(payload, len(records))
        assert not changes
        assert row_ms - batch_ms == pytest.approx(expected, rel=1e-9)
        assert batch_ms < row_ms

        # Rollback undoes both the same way: back to the seeded rows.
        row_db.abort(row_txn)
        batch_db.abort(batch_txn)
        assert _physical_state(row_table) == _physical_state(batch_table)
        assert sorted(v for _rid, v in row_table.scan()) == sorted(
            row_table.schema.validate_values(row) for row in BATCH_SCRIPT[0][1]
        )

    @pytest.mark.parametrize(
        "failing",
        [
            # Second row collides with the first on the primary key.
            ("insert", [(20, "a", 1.0), (20, "b", 2.0)]),
            # Second row moves onto an existing primary key.
            ("update", [(1, {"price": 5.0}), (2, {"item_id": 3})]),
            # The second delete finds the slot already freed.
            ("delete", [1, 1]),
        ],
        ids=lambda failing: failing[0],
    )
    @pytest.mark.parametrize("outcome", ["commit", "abort"])
    def test_failed_batch_leaves_no_wal_gap(self, small_schema, failing, outcome):
        database = Database("gap", archive_mode=True)
        table = database.create_table(small_schema)
        txn = database.begin()
        row_ids = table.insert_batch(txn, [(i, "seed", float(i)) for i in (1, 2, 3)])
        database.commit(txn)
        before = list(table._heap.scan())

        entry, items = failing
        txn = database.begin()
        with pytest.raises((ConstraintError, StorageError)):
            if entry == "insert":
                table.insert_batch(txn, items)
            elif entry == "update":
                table.update_batch(
                    txn, [(row_ids[key - 1], a) for key, a in items]
                )
            else:
                table.delete_batch(txn, [row_ids[key - 1] for key in items])
        # The first row of the batch was mutated before the second raised.
        assert list(table._heap.scan()) != before

        if outcome == "abort":
            database.abort(txn)
            assert list(table._heap.scan()) == before
            return
        # A caller that commits anyway must leave a log that explains the
        # heap: recovery from the archive reproduces the live table.
        database.commit(txn)
        database.checkpoint()
        standby = Database("standby", clock=database.clock)
        clone_schemas(database, standby)
        recover_from_archive(standby, database.log.drain_archive())
        assert list(standby.table("items")._heap.scan()) == list(table._heap.scan())
