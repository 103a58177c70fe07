"""Read/write-set and predicate-range extraction."""

import gc
import weakref

import pytest

from repro.analysis import OpDeltaAnalyzer
from repro.errors import AnalysisError, OpDeltaError
from repro.analysis.rwsets import (
    ColumnConstraint,
    Interval,
    PredicateRange,
    extract_footprint,
    range_from_insert,
    range_from_predicate,
)
from repro.core.opdelta import OpKind
from repro.sql.parser import parse, parse_expression


def rng(text):
    return range_from_predicate(parse_expression(text))


class TestInterval:
    def test_point_contains(self):
        p = Interval(5, 5)
        assert p.is_point
        assert p.contains(5)
        assert not p.contains(4)
        assert not p.contains(None)

    def test_half_open_bounds(self):
        iv = Interval(low=10, high=20, include_high=False)
        assert iv.contains(10)
        assert iv.contains(19)
        assert not iv.contains(20)

    def test_overlap(self):
        assert Interval(0, 10).overlaps(Interval(10, 20))
        assert not Interval(0, 10, include_high=False).overlaps(Interval(10, 20))
        assert not Interval(0, 5).overlaps(Interval(6, 9))
        assert Interval(low=5).overlaps(Interval(high=100))

    def test_incomparable_types_stay_conservative(self):
        # Can't prove an int range and a string range apart: must overlap.
        assert Interval(0, 10).overlaps(Interval("a", "z"))
        assert Interval(0, 10).contains("x")


class TestColumnConstraint:
    def test_points(self):
        c = ColumnConstraint.points([1, 3, 5])
        assert c.admits(3)
        assert not c.admits(2)
        assert not c.admits(None)

    def test_null_only(self):
        c = ColumnConstraint(intervals=(), null_only=True)
        assert c.admits(None)
        assert not c.admits(1)
        assert c.overlaps(ColumnConstraint(intervals=(), null_only=True))
        assert not c.overlaps(ColumnConstraint.points([1]))

    def test_intersect(self):
        a = ColumnConstraint(intervals=(Interval(0, 100),))
        b = ColumnConstraint(intervals=(Interval(50, 200),))
        both = a.intersect(b)
        assert both.admits(75)
        assert not both.admits(10)
        assert not both.admits(150)

    def test_unsatisfiable(self):
        a = ColumnConstraint(intervals=(Interval(0, 10),))
        b = ColumnConstraint(intervals=(Interval(20, 30),))
        assert a.intersect(b).unsatisfiable


class TestRangeFromPredicate:
    def test_simple_range(self):
        r = rng("part_ref >= 10 AND part_ref < 20")
        c = r.get("part_ref")
        assert c.admits(10) and c.admits(19)
        assert not c.admits(20) and not c.admits(9)

    def test_flipped_operands(self):
        r = rng("10 <= part_ref AND 20 > part_ref")
        c = r.get("part_ref")
        assert c.admits(10) and c.admits(19) and not c.admits(20)

    def test_in_list_points(self):
        c = rng("status IN ('a', 'b')").get("status")
        assert c.admits("a") and c.admits("b") and not c.admits("c")

    def test_between(self):
        c = rng("x BETWEEN 5 AND 9").get("x")
        assert c.admits(5) and c.admits(9)
        assert not c.admits(4) and not c.admits(10)

    def test_is_null(self):
        c = rng("x IS NULL").get("x")
        assert c.null_only

    def test_equals_null_unsatisfiable(self):
        assert rng("x = NULL").unsatisfiable

    def test_or_leaves_unconstrained(self):
        r = rng("x = 1 OR x = 2")
        assert r.get("x") is None

    def test_negations_ignored(self):
        assert rng("x <> 5").get("x") is None
        assert rng("x NOT IN (1, 2)").get("x") is None
        assert rng("x NOT BETWEEN 1 AND 2").get("x") is None
        assert rng("x IS NOT NULL").get("x") is None

    def test_column_to_column_ignored(self):
        assert rng("a = b").get("a") is None

    def test_non_literal_in_member_unconstrained(self):
        assert rng("x IN (1, y)").get("x") is None

    def test_disjointness(self):
        a = rng("k >= 0 AND k < 10")
        b = rng("k >= 10 AND k < 20")
        c = rng("k >= 5 AND k < 15")
        assert a.disjoint_from(b)
        assert not a.disjoint_from(c)
        assert not a.disjoint_from(PredicateRange({}))

    def test_contradictory_conjuncts_disjoint_from_anything(self):
        impossible = rng("k > 10 AND k < 5")
        assert impossible.unsatisfiable
        assert impossible.disjoint_from(rng("k = 7"))


class TestRangeFromInsert:
    def test_with_column_list(self):
        stmt = parse("INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')")
        r = range_from_insert(stmt)
        assert r.get("id").admits(1) and r.get("id").admits(2)
        assert not r.get("id").admits(3)
        assert r.get("v").admits("a")

    def test_without_column_list_needs_layout(self):
        stmt = parse("INSERT INTO t VALUES (1, 'a')")
        assert range_from_insert(stmt) is None
        r = range_from_insert(stmt, column_order=("id", "v"))
        assert r.get("id").admits(1)

    def test_insert_select_unknown(self):
        stmt = parse("INSERT INTO t (id) SELECT id FROM s")
        assert range_from_insert(stmt) is None


class TestExtractFootprint:
    def test_update(self):
        fp = extract_footprint(
            parse("UPDATE t SET a = b + 1, c = 2 WHERE k >= 5 AND k < 9")
        )
        assert fp.kind is OpKind.UPDATE
        assert fp.writes == {"a", "c"}
        assert not fp.writes_all_columns
        assert fp.reads == {"b", "k"}
        assert fp.where_columns == {"k"}
        assert fp.row_range.get("k").admits(5)

    def test_delete(self):
        fp = extract_footprint(parse("DELETE FROM t WHERE k = 3"))
        assert fp.kind is OpKind.DELETE
        assert fp.writes_all_columns
        assert fp.reads == {"k"}

    def test_insert(self):
        fp = extract_footprint(parse("INSERT INTO t (id, v) VALUES (1, 'x')"))
        assert fp.kind is OpKind.INSERT
        assert fp.writes == {"id", "v"}
        assert fp.writes_all_columns
        assert fp.row_range.get("id").admits(1)

    def test_insert_layout_from_table_columns(self):
        fp = extract_footprint(
            parse("INSERT INTO t VALUES (1, 'x')"),
            table_columns={"t": ("id", "v")},
        )
        assert fp.row_range is not None
        assert fp.row_range.get("id").admits(1)

    def test_non_dml_rejected(self):
        with pytest.raises((AnalysisError, OpDeltaError)):
            extract_footprint(parse("SELECT 1"))

    @pytest.mark.parametrize("text", [
        "UPDATE t SET a = 1 WHERE k = 3",
        "INSERT INTO t VALUES (1, 'x')",
    ])
    def test_an_analysed_statement_goes_with_its_last_reference(self, text):
        """What the analysis keeps of a statement refers nothing back to it,
        so reference counting alone frees it: no cycle waits for the
        cyclic collector."""
        statement = parse(text)
        OpDeltaAnalyzer(table_columns={"t": ("k", "a")}).analyze_statement(statement)
        extract_footprint(statement)
        alive = weakref.ref(statement)
        collecting = gc.isenabled()
        gc.disable()
        try:
            del statement
            assert alive() is None
        finally:
            if collecting:
                gc.enable()
