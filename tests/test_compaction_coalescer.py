"""Tests for the Op-Delta window coalescer (repro.compaction)."""

import pytest

from repro.analysis import OpDeltaAnalyzer
from repro.compaction import Coalescer
from repro.core.opdelta import OpDelta, OpDeltaTransaction, classify_statement
from repro.engine import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INTEGER, char
from repro.sql.parser import parse

TABLE_COLUMNS = {"t": ("id", "a", "b", "c")}
KEY_COLUMNS = {"t": "id"}


def make_op(sql, txn_id=1, seq=0, before=None):
    stmt = parse(sql)
    kind, table = classify_statement(stmt)
    return OpDelta(sql, table, kind, txn_id, seq, 0.0, before_image=before)


def make_group(txn_id, *sqls, before=None):
    ops = [make_op(sql, txn_id, i) for i, sql in enumerate(sqls)]
    if before is not None:
        ops[-1] = make_op(sqls[-1], txn_id, len(sqls) - 1, before=before)
    return OpDeltaTransaction(txn_id, ops)


def make_coalescer():
    return Coalescer(
        analyzer=OpDeltaAnalyzer(key_columns=KEY_COLUMNS, table_columns=TABLE_COLUMNS)
    )


def compact(*groups):
    return make_coalescer().compact_window(list(groups))


def texts(groups):
    return [op.statement_text for g in groups for op in g.operations]


class TestUpdateFold:
    def test_overwrite_fold(self):
        out, report = compact(make_group(
            1,
            "UPDATE t SET a = 1 WHERE b = 2",
            "UPDATE t SET a = 3 WHERE b = 2",
        ))
        assert report.updates_folded == 1
        (sql,) = texts(out)
        assert "a = 3" in sql and "a = 1" not in sql

    def test_accumulation_fold(self):
        out, report = compact(make_group(
            1,
            "UPDATE t SET a = a + 1 WHERE b = 2",
            "UPDATE t SET a = a + 2 WHERE b = 2",
        ))
        assert report.updates_folded == 1
        (sql,) = texts(out)
        assert "(a + 3)" in sql

    def test_disjoint_assignments_merge(self):
        out, report = compact(make_group(
            1,
            "UPDATE t SET a = 1 WHERE c = 9",
            "UPDATE t SET b = 2 WHERE c = 9",
        ))
        assert report.updates_folded == 1
        (sql,) = texts(out)
        assert "a = 1" in sql and "b = 2" in sql

    def test_different_where_not_folded(self):
        out, report = compact(make_group(
            1,
            "UPDATE t SET a = 1 WHERE b = 2",
            "UPDATE t SET a = 3 WHERE b = 4",
        ))
        assert report.updates_folded == 0
        assert len(texts(out)) == 2

    def test_where_column_assigned_not_folded(self):
        # The first update changes which rows the second matches.
        out, report = compact(make_group(
            1,
            "UPDATE t SET b = 5 WHERE b = 2",
            "UPDATE t SET a = 1 WHERE b = 2",
        ))
        assert report.updates_folded == 0
        assert len(texts(out)) == 2

    def test_non_commuting_accumulation_untouched_in_order(self):
        # a+1 then a*2 is not a*2 then a+1: no fold, no reorder.
        group = make_group(
            1,
            "UPDATE t SET a = a + 1 WHERE b = 2",
            "UPDATE t SET a = a * 2 WHERE b = 2",
        )
        out, report = compact(group)
        assert report.updates_folded == 0
        assert texts(out) == [op.statement_text for op in group.operations]


class TestInsertFusion:
    def test_run_fuses(self):
        out, report = compact(make_group(
            1,
            "INSERT INTO t (id, a, b, c) VALUES (1, 1, 1, 1)",
            "INSERT INTO t (id, a, b, c) VALUES (2, 2, 2, 2)",
            "INSERT INTO t (id, a, b, c) VALUES (3, 3, 3, 3)",
        ))
        assert report.inserts_fused == 2
        (sql,) = texts(out)
        assert sql.count("(1, 1, 1, 1)") == 1 and sql.count("(3, 3, 3, 3)") == 1

    def test_different_column_lists_not_fused(self):
        out, report = compact(make_group(
            1,
            "INSERT INTO t (id, a) VALUES (1, 1)",
            "INSERT INTO t (id, b) VALUES (2, 2)",
        ))
        assert report.inserts_fused == 0
        assert len(texts(out)) == 2


class TestAnnihilation:
    def test_insert_delete_same_txn_annihilates(self):
        out, report = compact(make_group(
            1,
            "INSERT INTO t (id, a, b, c) VALUES (7, 1, 2, 3)",
            "DELETE FROM t WHERE id = 7",
        ))
        assert report.pairs_annihilated == 1
        assert out == []  # fully annihilated group is dropped

    def test_annihilation_never_crosses_txn_boundary(self):
        out, report = compact(
            make_group(1, "INSERT INTO t (id, a, b, c) VALUES (7, 1, 2, 3)"),
            make_group(2, "DELETE FROM t WHERE id = 7"),
        )
        assert report.pairs_annihilated == 0
        assert len(texts(out)) == 2

    def test_wider_delete_not_annihilated(self):
        # The DELETE could match pre-existing rows too: both must survive.
        out, report = compact(make_group(
            1,
            "INSERT INTO t (id, a, b, c) VALUES (7, 1, 2, 3)",
            "DELETE FROM t WHERE id >= 7",
        ))
        assert report.pairs_annihilated == 0
        assert len(texts(out)) == 2

    def test_partial_match_not_annihilated(self):
        # The predicate pins the key but rejects the inserted row: the
        # DELETE is a no-op on it, and dropping the INSERT would lose data.
        out, report = compact(make_group(
            1,
            "INSERT INTO t (id, a, b, c) VALUES (7, 1, 2, 3)",
            "DELETE FROM t WHERE id = 7 AND a = 99",
        ))
        assert report.pairs_annihilated == 0
        assert len(texts(out)) == 2

    def test_multi_row_insert_fully_deleted(self):
        out, report = compact(make_group(
            1,
            "INSERT INTO t (id, a, b, c) VALUES (7, 1, 1, 1), (8, 1, 1, 1)",
            "DELETE FROM t WHERE id IN (7, 8)",
        ))
        assert report.pairs_annihilated == 1
        assert out == []

    def test_no_key_catalog_no_annihilation(self):
        # No key columns: nothing says two statements address one row.
        coalescer = Coalescer(analyzer=OpDeltaAnalyzer(table_columns=TABLE_COLUMNS))
        out, report = coalescer.compact_window([make_group(
            1,
            "INSERT INTO t (id, a, b, c) VALUES (7, 1, 2, 3)",
            "DELETE FROM t WHERE id = 7",
        )])
        assert report.pairs_annihilated == 0
        assert len(texts(out)) == 2


class TestSupersededUpdate:
    def test_update_before_delete_dropped(self):
        out, report = compact(make_group(
            1,
            "UPDATE t SET a = 5 WHERE b = 2",
            "DELETE FROM t WHERE b = 2",
        ))
        assert report.updates_superseded == 1
        (sql,) = texts(out)
        assert sql.startswith("DELETE")

    def test_stronger_update_predicate_still_superseded(self):
        out, report = compact(make_group(
            1,
            "UPDATE t SET a = 5 WHERE b = 2 AND c = 3",
            "DELETE FROM t WHERE b = 2",
        ))
        assert report.updates_superseded == 1
        (sql,) = texts(out)
        assert sql.startswith("DELETE")

    def test_weaker_update_predicate_kept(self):
        # The UPDATE touches rows the DELETE leaves alive.
        out, report = compact(make_group(
            1,
            "UPDATE t SET a = 5 WHERE b = 2",
            "DELETE FROM t WHERE b = 2 AND c = 3",
        ))
        assert report.updates_superseded == 0
        assert len(texts(out)) == 2

    def test_update_assigning_delete_predicate_column_kept(self):
        # The UPDATE moves rows out of the DELETE's membership.
        out, report = compact(make_group(
            1,
            "UPDATE t SET b = 9 WHERE b = 2",
            "DELETE FROM t WHERE b = 2",
        ))
        assert report.updates_superseded == 0
        assert len(texts(out)) == 2


class TestBarriers:
    def test_time_dependent_never_coalesced(self):
        group = make_group(
            1,
            "UPDATE t SET a = NOW() WHERE b = 2",
            "UPDATE t SET a = NOW() WHERE b = 2",
        )
        out, report = compact(group)
        assert report.ops_out == report.ops_in
        assert texts(out) == [op.statement_text for op in group.operations]

    def test_volatile_never_coalesced(self):
        group = make_group(
            1,
            "UPDATE t SET a = RANDOM() WHERE b = 2",
            "UPDATE t SET a = RANDOM() WHERE b = 2",
        )
        out, report = compact(group)
        assert report.ops_out == report.ops_in

    def test_non_deterministic_op_is_a_barrier(self):
        # The NOW() statement sits between two foldable updates; folding
        # across it would reorder around a time-dependent statement.
        out, report = compact(make_group(
            1,
            "UPDATE t SET a = 1 WHERE b = 2",
            "UPDATE t SET c = NOW() WHERE b = 2",
            "UPDATE t SET a = 3 WHERE b = 2",
        ))
        assert report.updates_folded == 0
        assert len(texts(out)) == 3

    def test_hybrid_op_carried_through_intact(self):
        before = [(7, 1, 2, 3)]
        group = make_group(
            1,
            "INSERT INTO t (id, a, b, c) VALUES (7, 1, 2, 3)",
            "DELETE FROM t WHERE id = 7",
            before=before,
        )
        out, report = compact(group)
        assert report.pairs_annihilated == 0
        (kept,) = out
        assert kept.operations[-1].before_image == before
        assert kept.operations[-1] is group.operations[-1]

    def test_commuting_gap_is_crossed(self):
        # The DELETE reaches its INSERT across an unrelated-table statement.
        out, report = compact(make_group(
            1,
            "INSERT INTO t (id, a, b, c) VALUES (7, 1, 2, 3)",
            "UPDATE u SET x = 1 WHERE y = 2",
            "DELETE FROM t WHERE id = 7",
        ))
        assert report.pairs_annihilated == 1
        (sql,) = texts(out)
        assert sql.startswith("UPDATE u")


class TestWindowAccounting:
    def test_bytes_and_transactions_tracked(self):
        out, report = compact(
            make_group(
                1,
                "UPDATE t SET a = 1 WHERE b = 2",
                "UPDATE t SET a = 3 WHERE b = 2",
            ),
            make_group(
                2,
                "INSERT INTO t (id, a, b, c) VALUES (7, 1, 2, 3)",
                "DELETE FROM t WHERE id = 7",
            ),
        )
        assert (report.transactions_in, report.transactions_out) == (2, 1)
        assert (report.ops_in, report.ops_out) == (4, 1)
        assert report.bytes_out < report.bytes_in
        assert 0.0 < report.bytes_ratio < 1.0
        assert report.bytes_saved == report.bytes_in - report.bytes_out

    def test_unchanged_group_kept_identical(self):
        group = make_group(1, "UPDATE t SET a = 1 WHERE b = 2")
        out, _report = compact(group)
        assert out[0] is group


class TestEngineEquivalence:
    """Dynamic validation: original and compacted windows produce the
    same engine state."""

    SCHEMA = TableSchema(
        "t",
        [
            Column("id", INTEGER, nullable=False),
            Column("a", INTEGER),
            Column("b", INTEGER),
            Column("c", char(8)),
        ],
        primary_key="id",
    )

    WINDOW = [
        (1, [
            "INSERT INTO t (id, a, b, c) VALUES (100, 1, 2, 'x')",
            "INSERT INTO t (id, a, b, c) VALUES (101, 1, 2, 'x')",
            "UPDATE t SET a = a + 1 WHERE b = 2",
            "UPDATE t SET a = a + 4 WHERE b = 2",
        ]),
        (2, [
            "INSERT INTO t (id, a, b, c) VALUES (200, 9, 9, 'tmp')",
            "DELETE FROM t WHERE id = 200",
            "UPDATE t SET a = 0 WHERE b = 1",
            "DELETE FROM t WHERE b = 1",
        ]),
        (3, [
            "UPDATE t SET c = 'one' WHERE id = 1",
            "UPDATE t SET c = 'two' WHERE id = 1",
        ]),
    ]

    def seeded_database(self, name):
        database = Database(name)
        database.create_table(self.SCHEMA)
        session = database.internal_session()
        for i in range(1, 6):
            session.execute(
                f"INSERT INTO t (id, a, b, c) VALUES ({i}, {i}, {i % 2}, 'r')"
            )
        return database

    def apply(self, database, groups):
        session = database.internal_session()
        for group in groups:
            session.begin()
            for op in group.operations:
                session.execute(op.statement_text)
            session.commit()

    def test_compacted_window_reproduces_state(self):
        groups = [make_group(txn, *sqls) for txn, sqls in self.WINDOW]
        compacted, report = compact(*groups)
        assert report.ops_out < report.ops_in

        db_original = self.seeded_database("cw-original")
        db_compacted = self.seeded_database("cw-compacted")
        self.apply(db_original, groups)
        self.apply(db_compacted, compacted)
        state_original = sorted(v for _r, v in db_original.table("t").scan())
        state_compacted = sorted(v for _r, v in db_compacted.table("t").scan())
        assert state_original == state_compacted
