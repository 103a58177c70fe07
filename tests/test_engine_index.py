"""Tests for the B-tree index, the engine's one index kind."""

import math

import pytest

from repro.clock import VirtualClock
from repro.engine import Database
from repro.engine.costs import DEFAULT_COST_MODEL
from repro.engine.index import BTreeIndex
from repro.engine.rows import RowId
from repro.engine.schema import Column, TableSchema
from repro.engine.types import FLOAT, INTEGER
from repro.errors import ConstraintError, StorageError


@pytest.fixture(params=["btree"])
def index(request):
    return BTreeIndex("ix", "col", VirtualClock(), DEFAULT_COST_MODEL)


class TestCommonBehaviour:
    def test_insert_and_lookup(self, index):
        index.insert(5, RowId(0, 0))
        assert index.lookup(5) == [RowId(0, 0)]
        assert index.lookup(6) == []

    def test_duplicate_keys_allowed_when_not_unique(self, index):
        index.insert(5, RowId(0, 0))
        index.insert(5, RowId(0, 1))
        assert sorted(index.lookup(5)) == [RowId(0, 0), RowId(0, 1)]

    def test_delete_specific_entry(self, index):
        index.insert(5, RowId(0, 0))
        index.insert(5, RowId(0, 1))
        index.delete(5, RowId(0, 0))
        assert index.lookup(5) == [RowId(0, 1)]

    def test_delete_missing_entry(self, index):
        with pytest.raises(StorageError):
            index.delete(5, RowId(0, 0))

    def test_entry_count(self, index):
        index.insert(1, RowId(0, 0))
        index.insert(2, RowId(0, 1))
        index.delete(1, RowId(0, 0))
        assert index.num_entries == 1

    def test_charges_the_clock(self, index):
        before = index._clock.now
        index.insert(1, RowId(0, 0))
        assert index._clock.now > before


class TestNullKeys:
    """A NULL key is an entry no probe returns (it satisfies neither ``=``
    nor a range) and that ``delete`` finds again; the sorted array never has
    to order it against a value."""

    def test_null_keys_are_kept_beside_the_keyed_entries(self, index):
        index.insert(5, RowId(0, 0))
        index.insert(None, RowId(0, 1))  # the B-tree raised a bare TypeError
        index.insert(None, RowId(0, 2))
        index.insert(3, RowId(0, 3))
        assert index.num_entries == 4
        assert index.lookup(None) == []
        assert index.lookup(5) == [RowId(0, 0)] and index.lookup(3) == [RowId(0, 3)]
        index.delete(None, RowId(0, 1))
        assert index.num_entries == 3
        with pytest.raises(StorageError, match="not found"):
            index.delete(None, RowId(0, 1))
        index.delete(None, RowId(0, 2))
        index.delete(5, RowId(0, 0))
        assert index.num_entries == 1

    def test_ranges_and_estimates_leave_them_out(self):
        btree = BTreeIndex("ix", "col", VirtualClock(), DEFAULT_COST_MODEL)
        for slot, key in enumerate([4, None, 1, None, 9]):
            btree.insert(key, RowId(0, slot))
        assert list(btree.range_scan(None, None)) == [
            RowId(0, 2), RowId(0, 0), RowId(0, 4)
        ]
        assert btree.estimate_range(None, None) == 3
        assert btree.estimate_range(2, None) == 2
        assert list(btree.range_scan(None, 4)) == [RowId(0, 2), RowId(0, 0)]

    @pytest.mark.parametrize("cls", [BTreeIndex])
    def test_nulls_do_not_collide_in_a_unique_index(self, cls):
        unique = cls("ix", "col", VirtualClock(), DEFAULT_COST_MODEL, unique=True)
        unique.insert(None, RowId(0, 0))
        unique.insert(None, RowId(0, 1))
        unique.insert(1, RowId(0, 2))
        with pytest.raises(ConstraintError):
            unique.insert(1, RowId(0, 3))
        assert unique.num_entries == 3

    def test_a_null_key_costs_what_any_key_costs(self, index):
        twin = type(index)("ix", "col", VirtualClock(), DEFAULT_COST_MODEL)
        for key, other in ((None, 7), (None, 8)):
            index.insert(key, RowId(0, 0))
            twin.insert(other, RowId(0, 0))
            index.delete(key, RowId(0, 0))
            twin.delete(other, RowId(0, 0))
        assert index._clock.now == twin._clock.now > 0


class TestNaNKeys:
    """A NaN key is kept beside the NULL keys: NaN = NaN is not true, so no
    probe returns it, and a NaN in the sorted array broke its order."""

    @pytest.fixture
    def table(self):
        db = Database("nan")
        table = db.create_table(TableSchema(
            "t", [Column("id", INTEGER, nullable=False), Column("f", FLOAT)],
            primary_key="id",
        ))
        table.create_index("ixf", "f")
        txn = db.begin()
        for row in ((1, math.nan), (2, 1.0), (3, 0.5)):
            table.insert(txn, row)
        db.commit(txn)
        return db, table

    def test_probes_leave_the_nan_row_out(self, table):
        _, t = table
        index = t.index("ixf")
        assert index.num_entries == 3
        assert index.lookup(0.5) == [RowId(0, 2)]
        assert index.lookup(math.nan) == []
        assert list(index.range_scan(None, None)) == [RowId(0, 2), RowId(0, 1)]
        assert index.estimate_range(0.0, 2.0) == 2

    def test_the_nan_row_can_be_updated_and_deleted(self, table):
        db, t = table
        index = t.index("ixf")
        txn = db.begin()
        t.update(txn, RowId(0, 0), {"f": 0.25})
        db.commit(txn)
        assert list(index.range_scan(None, None)) == [
            RowId(0, 0), RowId(0, 2), RowId(0, 1)
        ]
        txn = db.begin()
        t.update(txn, RowId(0, 0), {"f": math.nan})
        t.delete(txn, RowId(0, 0))
        db.commit(txn)
        assert index.num_entries == 2 and t.num_rows == 2

    def test_nans_do_not_collide_in_a_unique_index(self):
        unique = BTreeIndex("ix", "col", VirtualClock(), DEFAULT_COST_MODEL, unique=True)
        unique.insert(1.0, RowId(0, 0))
        unique.insert(math.nan, RowId(0, 1))
        unique.insert(math.nan, RowId(0, 2))
        unique.delete(math.nan, RowId(0, 1))
        assert unique.num_entries == 2 and unique.lookup(1.0) == [RowId(0, 0)]


class TestUniqueIndexes:
    @pytest.mark.parametrize("cls", [BTreeIndex])
    def test_unique_violation(self, cls):
        index = cls("u", "col", VirtualClock(), DEFAULT_COST_MODEL, unique=True)
        index.insert(5, RowId(0, 0))
        with pytest.raises(ConstraintError):
            index.insert(5, RowId(0, 1))

    @pytest.mark.parametrize("cls", [BTreeIndex])
    def test_reinsert_after_delete(self, cls):
        index = cls("u", "col", VirtualClock(), DEFAULT_COST_MODEL, unique=True)
        index.insert(5, RowId(0, 0))
        index.delete(5, RowId(0, 0))
        index.insert(5, RowId(0, 1))
        assert index.lookup(5) == [RowId(0, 1)]


class TestBTreeRange:
    @pytest.fixture
    def btree(self):
        index = BTreeIndex("b", "col", VirtualClock(), DEFAULT_COST_MODEL)
        for i in range(10):
            index.insert(i, RowId(0, i))
        return index

    def test_inclusive_range(self, btree):
        rids = list(btree.range_scan(3, 6))
        assert rids == [RowId(0, i) for i in (3, 4, 5, 6)]

    def test_exclusive_bounds(self, btree):
        rids = list(btree.range_scan(3, 6, include_low=False, include_high=False))
        assert rids == [RowId(0, 4), RowId(0, 5)]

    def test_open_ended(self, btree):
        assert len(list(btree.range_scan(None, 4))) == 5
        assert len(list(btree.range_scan(7, None))) == 3
        assert len(list(btree.range_scan(None, None))) == 10

    def test_estimate_matches_scan(self, btree):
        assert btree.estimate_range(3, 6) == 4
        assert btree.estimate_range(None, None) == 10
        assert btree.estimate_range(100, None) == 0

    def test_duplicates_in_range(self):
        index = BTreeIndex("b", "col", VirtualClock(), DEFAULT_COST_MODEL)
        index.insert(1, RowId(0, 0))
        index.insert(1, RowId(0, 1))
        index.insert(2, RowId(0, 2))
        assert len(list(index.range_scan(1, 1))) == 2


class TestProbeCounts:
    """``probes`` counts one index's probes; the database's
    ``engine.index.probe`` counter counts every index's together."""

    def test_two_indexes_on_one_database_count_their_own_probes(self):
        database = Database("probes")
        table = database.create_table(
            TableSchema("t", [Column("a", INTEGER), Column("b", INTEGER)])
        )
        by_a = table.create_index("ix_a", "a")
        by_b = table.create_index("ix_b", "b")
        txn = database.begin()
        for row in ((1, 10), (2, 20), (3, 30)):
            table.insert(txn, row)
        database.commit(txn)
        by_a.lookup(1)
        by_a.lookup(9)
        assert list(by_b.range_scan(10, 20)) and by_b.probes == 1
        assert by_a.probes == 2
        assert database.metrics.value("engine.index.probe", db="probes") == 3
