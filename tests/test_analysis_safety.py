"""Determinism, pinning, idempotence and commutativity judgements.

The commutativity cases are validated *dynamically* where practical: for
pairs the analyzer calls commuting, both application orders are executed
against a live engine and the final states compared.
"""

import dataclasses
import itertools

import pytest

from repro.analysis import OpDeltaAnalyzer, safety
from repro.analysis.rwsets import extract_footprint
from repro.analysis.safety import (
    Determinism,
    commutes,
    is_idempotent,
    op_footprint,
    pin_time_functions,
    statement_determinism,
)
from repro.core import OpDelta, OpKind
from repro.core.selfmaint import ViewDefinition
from repro.engine import Database
from repro.sql.parser import parse

KEYS = {"t": "id"}


def fp(sql, table_columns=None):
    return extract_footprint(parse(sql), table_columns)


def det(sql):
    return statement_determinism(parse(sql))


class TestDeterminism:
    def test_plain_dml_is_deterministic(self):
        assert det("UPDATE t SET a = a + 1 WHERE k = 2") is Determinism.DETERMINISTIC
        assert det("DELETE FROM t WHERE k < 5") is Determinism.DETERMINISTIC
        assert det("INSERT INTO t (id) VALUES (1)") is Determinism.DETERMINISTIC

    def test_now_is_time_dependent(self):
        assert det("UPDATE t SET ts = NOW() WHERE k = 1") is Determinism.TIME_DEPENDENT
        assert det("DELETE FROM t WHERE ts < NOW()") is Determinism.TIME_DEPENDENT
        assert det("INSERT INTO t (ts) VALUES (NOW())") is Determinism.TIME_DEPENDENT

    def test_random_is_volatile(self):
        assert det("UPDATE t SET a = RANDOM() WHERE k = 1") is Determinism.VOLATILE

    def test_volatile_dominates_time(self):
        assert (
            det("UPDATE t SET a = RANDOM(), ts = NOW() WHERE k = 1")
            is Determinism.VOLATILE
        )

    def test_nested_function_args_are_walked(self):
        assert (
            det("UPDATE t SET a = ABS(ROUND(NOW())) WHERE k = 1")
            is Determinism.TIME_DEPENDENT
        )

    def test_replayable(self):
        # As captured, after pinning the capture time, or not at all: the
        # analyzer's record says which.
        analyzer = OpDeltaAnalyzer()
        records = [
            analyzer.analyze_statement(parse(sql))
            for sql in (
                "UPDATE t SET a = 1 WHERE k = 1",
                "UPDATE t SET ts = NOW() WHERE k = 1",
                "UPDATE t SET a = RANDOM() WHERE k = 1",
            )
        ]
        assert [(r.safe, r.pinnable) for r in records] == [
            (True, False), (False, True), (False, False),
        ]


class TestPinning:
    def test_pin_update_assignment_and_where(self):
        stmt = parse("UPDATE t SET ts = NOW() WHERE ts < CURRENT_TIMESTAMP")
        pinned = pin_time_functions(stmt, 12345.0)
        assert statement_determinism(pinned) is Determinism.DETERMINISTIC
        assert "12345" in pinned.to_sql()
        assert "NOW" not in pinned.to_sql().upper()

    def test_pin_inside_nested_call(self):
        stmt = parse("UPDATE t SET a = ABS(NOW()) WHERE k = 1")
        pinned = pin_time_functions(stmt, 7.0)
        assert statement_determinism(pinned) is Determinism.DETERMINISTIC

    def test_pin_leaves_original_untouched(self):
        stmt = parse("UPDATE t SET ts = NOW() WHERE k = 1")
        pin_time_functions(stmt, 99.0)
        assert statement_determinism(stmt) is Determinism.TIME_DEPENDENT

    def test_pin_does_not_touch_volatile(self):
        stmt = parse("UPDATE t SET a = RANDOM() WHERE k = 1")
        pinned = pin_time_functions(stmt, 5.0)
        assert statement_determinism(pinned) is Determinism.VOLATILE

    def test_pinned_replay_matches_capture_time(self):
        # Executing the pinned form must write the pinned value, not the
        # engine's own clock.
        db = Database("pin_check").internal_session()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, ts TIMESTAMP)")
        db.execute("INSERT INTO t (id, ts) VALUES (1, 0)")
        pinned = pin_time_functions(
            parse("UPDATE t SET ts = NOW() WHERE id = 1"), 4242.0
        )
        db.execute(pinned.to_sql())
        rows = db.execute("SELECT ts FROM t WHERE id = 1").rows
        assert rows[0][0] == 4242.0


class TestIdempotence:
    def test_literal_update_idempotent(self):
        assert is_idempotent(fp("UPDATE t SET a = 5 WHERE k = 1"))

    def test_accumulating_update_not_idempotent(self):
        assert not is_idempotent(fp("UPDATE t SET a = a + 1 WHERE k = 1"))

    def test_cross_column_read_of_assigned_not_idempotent(self):
        # b's new value depends on whether a was already rewritten.
        assert not is_idempotent(fp("UPDATE t SET a = 5, b = a + 1 WHERE k = 1"))

    def test_where_on_assigned_column_needs_literal(self):
        assert is_idempotent(fp("UPDATE t SET a = 5 WHERE a = 1"))
        assert not is_idempotent(fp("UPDATE t SET a = b WHERE a = 1"))

    def test_delete_idempotent(self):
        assert is_idempotent(fp("DELETE FROM t WHERE k < 10"))

    def test_insert_never_idempotent(self):
        assert not is_idempotent(fp("INSERT INTO t (id) VALUES (1)"))

    def test_time_dependent_not_idempotent(self):
        assert not is_idempotent(fp("UPDATE t SET a = NOW() WHERE k = 1"))

    def test_idempotent_update_applied_twice_dynamically(self):
        db = Database("idem").internal_session()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER)")
        db.execute("INSERT INTO t (id, a) VALUES (1, 0), (2, 0)")
        sql = "UPDATE t SET a = 7 WHERE id = 1"
        assert is_idempotent(fp(sql))
        db.execute(sql)
        once = db.execute("SELECT id, a FROM t").rows
        db.execute(sql)
        assert db.execute("SELECT id, a FROM t").rows == once


def _apply_orders(setup_rows, sql_a, sql_b):
    """Run a;b and b;a on identical tables, return both final states."""
    states = []
    for first, second in ((sql_a, sql_b), (sql_b, sql_a)):
        db = Database("order_check").internal_session()
        db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)"
        )
        for row in setup_rows:
            db.execute("INSERT INTO t (id, a, b) VALUES (%d, %d, %d)" % row)
        db.execute(first)
        db.execute(second)
        states.append(sorted(db.execute("SELECT id, a, b FROM t").rows))
    return states


class TestCommutes:
    ROWS = [(1, 10, 100), (2, 20, 200), (3, 30, 300)]

    def assert_commutes_and_verify(self, sql_a, sql_b):
        assert commutes(fp(sql_a), fp(sql_b), KEYS)
        state_ab, state_ba = _apply_orders(self.ROWS, sql_a, sql_b)
        assert state_ab == state_ba

    def test_different_tables(self):
        assert commutes(
            fp("UPDATE t SET a = 1 WHERE id = 1"),
            fp("UPDATE u SET a = 2 WHERE id = 1"),
            KEYS,
        )

    def test_disjoint_range_updates(self):
        self.assert_commutes_and_verify(
            "UPDATE t SET a = 1 WHERE id >= 1 AND id < 2",
            "UPDATE t SET a = 2 WHERE id >= 2 AND id < 3",
        )

    def test_overlapping_literal_updates_same_column_conflict(self):
        assert not commutes(
            fp("UPDATE t SET a = 1 WHERE id < 3"),
            fp("UPDATE t SET a = 2 WHERE id < 3"),
            KEYS,
        )

    def test_additive_same_op_commutes(self):
        self.assert_commutes_and_verify(
            "UPDATE t SET a = a + 5",
            "UPDATE t SET a = a + 7",
        )

    def test_mixed_plus_times_conflict(self):
        assert not commutes(
            fp("UPDATE t SET a = a + 5"),
            fp("UPDATE t SET a = a * 2"),
            KEYS,
        )

    def test_where_reads_assigned_column_conflict(self):
        assert not commutes(
            fp("UPDATE t SET a = a + 1 WHERE a < 50"),
            fp("UPDATE t SET a = a + 1"),
            KEYS,
        )

    def test_other_assignment_reads_accumulated_column_conflict(self):
        # d = a * 2 observes a's accumulated value: order shows through.
        assert not commutes(
            fp("UPDATE t SET a = a + 1, b = a * 2"),
            fp("UPDATE t SET a = a + 1"),
            KEYS,
        )

    def test_update_can_move_rows_into_range_conflict(self):
        # b sets id-constrained column a to a value inside a's range.
        assert not commutes(
            fp("UPDATE t SET b = 0 WHERE a >= 0 AND a < 50"),
            fp("UPDATE t SET a = 10 WHERE id = 3"),
            KEYS,
        )

    def test_deletes_commute(self):
        self.assert_commutes_and_verify(
            "DELETE FROM t WHERE id = 1",
            "DELETE FROM t WHERE id = 2",
        )
        # Even overlapping deletes commute: deletion is order-free.
        assert commutes(
            fp("DELETE FROM t WHERE a < 50"),
            fp("DELETE FROM t WHERE a < 100"),
            KEYS,
        )

    def test_delete_update_no_interference(self):
        self.assert_commutes_and_verify(
            "DELETE FROM t WHERE id = 1",
            "UPDATE t SET a = 99 WHERE id = 2",
        )

    def test_delete_update_membership_interference(self):
        # The update rewrites a column the delete's WHERE reads, over
        # possibly-shared rows: order decides who survives.
        assert not commutes(
            fp("DELETE FROM t WHERE a < 50"),
            fp("UPDATE t SET a = 0 WHERE id >= 1"),
            KEYS,
        )

    def test_inserts_with_disjoint_keys(self):
        self.assert_commutes_and_verify(
            "INSERT INTO t (id, a, b) VALUES (10, 0, 0)",
            "INSERT INTO t (id, a, b) VALUES (11, 0, 0)",
        )

    def test_inserts_without_key_knowledge_conflict(self):
        assert not commutes(
            fp("INSERT INTO t (id, a, b) VALUES (10, 0, 0)"),
            fp("INSERT INTO t (id, a, b) VALUES (11, 0, 0)"),
            None,  # no key_columns: cannot prove disjoint keys
        )

    def test_inserts_with_same_key_conflict(self):
        assert not commutes(
            fp("INSERT INTO t (id, a, b) VALUES (10, 0, 0)"),
            fp("INSERT INTO t (id, a, b) VALUES (10, 1, 1)"),
            KEYS,
        )

    def test_insert_update_disjoint(self):
        self.assert_commutes_and_verify(
            "INSERT INTO t (id, a, b) VALUES (10, 500, 0)",
            "UPDATE t SET b = 1 WHERE a < 100",
        )

    def test_insert_into_update_range_conflict(self):
        assert not commutes(
            fp("INSERT INTO t (id, a, b) VALUES (10, 5, 0)"),
            fp("UPDATE t SET b = 1 WHERE a < 100"),
            KEYS,
        )

    def test_delete_insert_disjoint_keys(self):
        self.assert_commutes_and_verify(
            "DELETE FROM t WHERE id >= 1 AND id < 3",
            "INSERT INTO t (id, a, b) VALUES (10, 0, 0)",
        )

    def test_delete_insert_overlapping_keys_conflict(self):
        assert not commutes(
            fp("DELETE FROM t WHERE id >= 1 AND id < 20"),
            fp("INSERT INTO t (id, a, b) VALUES (10, 0, 0)"),
            KEYS,
        )

    def test_time_dependent_never_commutes(self):
        assert not commutes(
            fp("UPDATE t SET a = NOW() WHERE id = 1"),
            fp("UPDATE t SET a = 0 WHERE id = 2"),
            KEYS,
        )

    def test_symmetry(self):
        pairs = [
            ("UPDATE t SET a = 1 WHERE id >= 1 AND id < 2",
             "UPDATE t SET a = 2 WHERE id >= 2 AND id < 3"),
            ("DELETE FROM t WHERE a < 50",
             "UPDATE t SET a = 0 WHERE id >= 1"),
            ("INSERT INTO t (id, a, b) VALUES (10, 0, 0)",
             "UPDATE t SET b = 1 WHERE a < 100"),
        ]
        for sql_a, sql_b in pairs:
            assert commutes(fp(sql_a), fp(sql_b), KEYS) == commutes(
                fp(sql_b), fp(sql_a), KEYS
            )


class TestImageReplayCommutes:
    """Hybrid-captured ops replay *from their before images* on views that
    need them — delete-by-key plus a full-row reinsert — so only proofs
    establishing disjoint row sets survive; pointwise-assignment arguments
    do not (the later reinsert resurrects the other op's columns)."""

    def imaged(self, sql):
        return dataclasses.replace(fp(sql), image_replay=True)

    def test_op_footprint_marks_hybrid_captures(self):
        op = OpDelta(
            "UPDATE t SET a = 1 WHERE id = 1", "t", OpKind.UPDATE, 1, 0, 0.0
        )
        assert op_footprint(op).image_replay is False
        hybrid = dataclasses.replace(op, before_image=[(1, 10, 100)])
        assert op_footprint(hybrid).image_replay is True

    def test_disjoint_column_updates_conflict_under_image_replay(self):
        # Disjoint assigned columns commute under statement replay; a
        # full-row reinsert overwrites the other op's column from its image.
        a = "UPDATE t SET a = 1 WHERE id < 3"
        b = "UPDATE t SET b = 2 WHERE id < 3"
        assert commutes(fp(a), fp(b), KEYS)
        assert not commutes(self.imaged(a), fp(b), KEYS)
        assert not commutes(fp(a), self.imaged(b), KEYS)

    def test_additive_updates_conflict_under_image_replay(self):
        a = "UPDATE t SET a = a + 5"
        b = "UPDATE t SET a = a + 7"
        assert commutes(fp(a), fp(b), KEYS)
        assert not commutes(self.imaged(a), self.imaged(b), KEYS)

    def test_disjoint_row_proofs_survive_image_replay(self):
        assert commutes(
            self.imaged("UPDATE t SET a = 1 WHERE id >= 1 AND id < 2"),
            self.imaged("UPDATE t SET a = 2 WHERE id >= 2 AND id < 3"),
            KEYS,
        )

    def test_deletes_still_commute_imaged(self):
        # A row deleted by one op cannot appear in the other's image: the
        # images are disjoint by construction at the source.
        assert commutes(
            self.imaged("DELETE FROM t WHERE a < 50"),
            self.imaged("DELETE FROM t WHERE a < 100"),
            KEYS,
        )

    def test_delete_update_pointwise_proof_rejected_imaged(self):
        # Assigned column disjoint from the delete's WHERE — sound for
        # statement replay, unsound when either op reinserts full rows.
        d = "DELETE FROM t WHERE id = 1"
        u = "UPDATE t SET a = 99 WHERE b < 500"
        assert commutes(fp(d), fp(u), KEYS)
        assert not commutes(self.imaged(d), self.imaged(u), KEYS)

    def test_delete_update_disjoint_ranges_survive_imaged(self):
        assert commutes(
            self.imaged("DELETE FROM t WHERE id = 1"),
            self.imaged("UPDATE t SET a = 99 WHERE id = 2"),
            KEYS,
        )

    def test_image_replay_symmetric(self):
        a = "UPDATE t SET a = 1 WHERE id < 3"
        b = "UPDATE t SET b = 2 WHERE id < 3"
        assert commutes(self.imaged(a), fp(b), KEYS) == commutes(
            fp(b), self.imaged(a), KEYS
        )


class TestDeletesReplayedAlike:
    """Two DELETEs swap freely only when every view replays them alike.

    Where a view rewrites one onto itself and replays the other from its
    before image, the statement can remove a row the image then fails to
    find, so only disjoint row sets make the pair safe."""

    #: A DELETE reading only ``id``/``a`` is rewritten onto it; one reading
    #: ``b`` is replayed from its before image.
    NARROW = ViewDefinition(
        name="narrow", base_table="t", columns=("id", "a"), key_column="id"
    )

    def footprint(self, sql, kind=OpKind.DELETE, table="t"):
        op = OpDelta(sql, table, kind, 1, 0, 0.0, before_image=[])
        return op_footprint(op, views=[self.NARROW])

    def test_op_footprint_names_the_views_replaying_the_image(self):
        assert self.footprint("DELETE FROM t WHERE id = 1").image_views == set()
        assert self.footprint("DELETE FROM t WHERE b < 5").image_views == {
            "narrow"
        }
        # Only a DELETE, and only on the views over its table.
        update = self.footprint("UPDATE t SET b = 1 WHERE b < 5", OpKind.UPDATE)
        assert update.image_views == set()
        other = self.footprint("DELETE FROM u WHERE b < 5", table="u")
        assert other.image_views == set()

    def test_replayed_differently_they_need_disjoint_rows(self):
        point = self.footprint("DELETE FROM t WHERE id = 1")
        assert not commutes(point, self.footprint("DELETE FROM t WHERE b < 5"), KEYS)
        ranged = self.footprint("DELETE FROM t WHERE id > 1 AND b < 5")
        assert commutes(point, ranged, KEYS)
        assert commutes(ranged, point, KEYS)
        # The structural widening counts as a disjointness proof too.
        a = self.footprint("DELETE FROM t WHERE a = 1")
        b = self.footprint("DELETE FROM t WHERE a <> 1 AND b < 5")
        assert commutes(a, b, KEYS)
        assert not commutes(a, b, KEYS, structural=False)

    def test_replayed_alike_they_swap_freely(self):
        assert commutes(
            self.footprint("DELETE FROM t WHERE b < 5"),
            self.footprint("DELETE FROM t WHERE b < 9"),
            KEYS,
        )
        assert commutes(
            self.footprint("DELETE FROM t WHERE id = 1"),
            self.footprint("DELETE FROM t WHERE a < 9"),
            KEYS,
        )


class TestFootprintCarriesDeterminism:
    """The pairwise provers read a classification the footprint keeps."""

    STATEMENTS = [
        "UPDATE t SET a = 1 WHERE id >= 1 AND id < 2",
        "UPDATE t SET a = 2 WHERE id >= 2 AND id < 3",
        "UPDATE t SET a = a + 5",
        "UPDATE t SET a = a * 2 WHERE b < 10",
        "UPDATE t SET b = 1 WHERE a < 100",
        "UPDATE t SET a = NOW() WHERE id = 1",
        "UPDATE t SET a = RANDOM() WHERE id = 2",
        "DELETE FROM t WHERE a < 50",
        "DELETE FROM t WHERE id = 1",
        "DELETE FROM t WHERE a < NOW()",
        "INSERT INTO t (id, a, b) VALUES (10, 0, 0)",
        "INSERT INTO t (id, a, b) VALUES (11, 0, 0)",
        "INSERT INTO u (id) VALUES (1)",
    ]

    def test_answers_over_the_pair_matrix_do_not_depend_on_reuse(self):
        shared = [fp(sql) for sql in self.STATEMENTS]
        answers = []
        for i, j in itertools.product(range(len(shared)), repeat=2):
            fresh = commutes(fp(self.STATEMENTS[i]), fp(self.STATEMENTS[j]), KEYS)
            assert commutes(shared[i], shared[j], KEYS) == fresh, (i, j)
            answers.append(fresh)
        assert True in answers and False in answers
        for footprint, sql in zip(shared, self.STATEMENTS):
            assert is_idempotent(footprint) == is_idempotent(fp(sql)), sql

    def test_statement_is_classified_once_per_footprint(self, monkeypatch):
        classified = []

        def counting(statement):
            classified.append(statement)
            return statement_determinism(statement)

        monkeypatch.setattr(safety, "statement_determinism", counting)
        footprints = [fp(sql) for sql in self.STATEMENTS]
        for a, b in itertools.product(footprints, repeat=2):
            commutes(a, b, KEYS)
        for footprint in footprints:
            is_idempotent(footprint)
        assert len(classified) == len(footprints)
        assert {id(s) for s in classified} == {id(f.statement) for f in footprints}

    def test_replace_neither_shares_nor_breaks_the_kept_value(self):
        original = fp("UPDATE t SET a = NOW() WHERE id = 1")
        assert original.determinism is Determinism.TIME_DEPENDENT
        imaged = dataclasses.replace(original, image_replay=True)
        assert "determinism" not in vars(imaged)
        assert imaged.determinism is Determinism.TIME_DEPENDENT
        assert imaged == dataclasses.replace(original, image_replay=True)
        # Not shared: a replaced statement is classified for what it is.
        pinned = dataclasses.replace(
            original, statement=pin_time_functions(original.statement, 5.0)
        )
        assert pinned.determinism is Determinism.DETERMINISTIC


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
