"""Tests for workload generators and the OLTP driver."""

import pytest

from repro.engine import Database
from repro.errors import ReproError
from repro.workloads import (
    OltpWorkload,
    PartsGenerator,
    parts_schema,
    strip_timestamp,
    suppliers_schema,
)
from repro.workloads.records import NUM_SUPPLIERS


class TestPartsGenerator:
    def test_deterministic_for_seed(self):
        first = list(PartsGenerator(seed=7).rows(10))
        second = list(PartsGenerator(seed=7).rows(10))
        assert first == second

    def test_different_seeds_differ(self):
        assert list(PartsGenerator(seed=1).rows(5)) != list(
            PartsGenerator(seed=2).rows(5)
        )

    def test_rows_validate_against_schema(self):
        schema = parts_schema()
        for row in PartsGenerator().rows(50):
            schema.validate_values(row)

    def test_record_is_about_100_bytes(self):
        # The paper's experiments use 100-byte records.
        assert 100 <= parts_schema().record_size <= 120

    def test_part_ref_mirrors_part_id(self):
        for row in PartsGenerator().rows(10, start_id=5):
            assert row[0] == row[1]

    def test_supplier_rows_match_schema(self):
        schema = suppliers_schema()
        rows = list(PartsGenerator().supplier_rows())
        assert len(rows) == NUM_SUPPLIERS
        for row in rows:
            schema.validate_values(row)

    def test_supplier_ids_within_range(self):
        generator = PartsGenerator()
        supplier_index = parts_schema().column_index("supplier_id")
        rows = list(generator.rows(200))
        assert {row[supplier_index] for row in rows} == set(range(NUM_SUPPLIERS))


class TestOltpWorkload:
    @pytest.fixture
    def oltp(self):
        database = Database("wl")
        workload = OltpWorkload(database)
        workload.create_table()
        workload.populate(500)
        return workload

    def test_populate_counts(self, oltp):
        assert oltp.live_rows == 500

    def test_insert_transaction(self, oltp):
        result = oltp.run_insert(50)
        assert result.rows_affected == 50
        assert oltp.live_rows == 550
        assert result.response_ms > 0

    def test_update_touches_exact_count(self, oltp):
        result = oltp.run_update(37)
        assert result.rows_affected == 37
        assert oltp.live_rows == 500

    def test_delete_with_top_up_keeps_size(self, oltp):
        oltp.run_delete(60)
        assert oltp.live_rows == 500

    def test_delete_without_top_up(self, oltp):
        oltp.run_delete(60, top_up=False)
        assert oltp.live_rows == 440

    def test_sequential_deletes_consume_distinct_rows(self, oltp):
        first = oltp.run_delete(10, top_up=False)
        second = oltp.run_delete(10, top_up=False)
        assert first.rows_affected == second.rows_affected == 10
        assert oltp.live_rows == 480

    def test_oversized_transaction_rejected(self, oltp):
        with pytest.raises(ReproError):
            oltp.run_update(10_000)

    def test_response_scales_with_size(self, oltp):
        small = oltp.run_update(10).response_ms
        large = oltp.run_update(400).response_ms
        assert large > small

    def test_run_mixed(self, oltp):
        # The paper's trio at one size, each touching exactly that many rows.
        results = [oltp.run_insert(20), oltp.run_update(20), oltp.run_delete(20)]
        assert [(r.kind, r.rows_affected) for r in results] == [
            ("insert", 20), ("update", 20), ("delete", 20),
        ]


class TestStripTimestamp:
    def test_removes_timestamp_column(self):
        schema = parts_schema()
        row = PartsGenerator().row(1, timestamp=42.0)
        stripped = strip_timestamp(schema, [row])[0]
        assert 42.0 not in stripped
        assert len(stripped) == len(row) - 1

    def test_sorts_rows(self):
        schema = parts_schema()
        generator = PartsGenerator()
        rows = [generator.row(2), generator.row(1)]
        stripped = strip_timestamp(schema, rows)
        assert stripped[0][0] == 1

    def test_schema_without_timestamp(self, small_schema):
        rows = [(2, "b", 1.0), (1, "a", 1.0)]
        assert strip_timestamp(small_schema, rows) == sorted(rows)
