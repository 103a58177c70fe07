"""Tests for Export / Import / ASCII dump & Loader utilities."""

import pytest

from repro.engine import Database
from repro.engine.utilities import (
    ascii_dump_rows,
    ascii_dump_table,
    ascii_load,
    export_table,
    import_dump,
)
from repro.engine.rows import ASCII_NULL
from repro.errors import SchemaError, UtilityError
from repro.workloads import parts_schema

from .conftest import insert_parts


@pytest.fixture
def loaded_db():
    database = Database("util-src")
    database.create_table(parts_schema())
    insert_parts(database, 200)
    return database


def table_rows(database, name):
    return sorted(values for _rid, values in database.table(name).scan())


class TestExportImport:
    def test_roundtrip(self, loaded_db):
        dump = export_table(loaded_db, "parts")
        assert dump.num_records == 200
        target = Database("util-dst", clock=loaded_db.clock)
        loaded = import_dump(target, dump)
        assert loaded == 200
        assert table_rows(target, "parts") == table_rows(loaded_db, "parts")

    def test_import_creates_table_if_missing(self, loaded_db):
        dump = export_table(loaded_db, "parts")
        target = Database("util-dst", clock=loaded_db.clock)
        import_dump(target, dump)
        assert target.has_table("parts")

    def test_import_into_named_table(self, loaded_db):
        dump = export_table(loaded_db, "parts")
        target = Database("util-dst", clock=loaded_db.clock)
        import_dump(target, dump, table_name="staged_parts")
        assert target.table("staged_parts").num_rows == 200

    def test_cross_product_rejected(self, loaded_db):
        dump = export_table(loaded_db, "parts")
        other = Database("other", clock=loaded_db.clock, product="OtherDB")
        with pytest.raises(UtilityError, match="proprietary"):
            import_dump(other, dump)

    def test_version_skew_rejected(self, loaded_db):
        dump = export_table(loaded_db, "parts")
        newer = Database(
            "newer", clock=loaded_db.clock, product_version="2.0"
        )
        with pytest.raises(UtilityError, match="version"):
            import_dump(newer, dump)

    def test_schema_mismatch_rejected(self, loaded_db, small_schema):
        dump = export_table(loaded_db, "parts")
        target = Database("util-dst", clock=loaded_db.clock)
        target.create_table(small_schema.renamed("parts"))
        with pytest.raises(UtilityError, match="schema mismatch"):
            import_dump(target, dump)

    def test_export_sees_unflushed_changes(self, loaded_db):
        # Export must flush dirty pages first: rows inserted but never
        # checkpointed still appear in the dump.
        dump = export_table(loaded_db, "parts")
        assert dump.num_records == loaded_db.table("parts").num_rows

    def test_import_super_linear_cost(self):
        """Import's per-row cost grows with what is already loaded."""
        def import_cost(rows: int) -> float:
            source = Database("src")
            source.create_table(parts_schema())
            insert_parts(source, rows)
            dump = export_table(source, "parts")
            target = Database("dst", clock=source.clock)
            with source.clock.stopwatch() as watch:
                import_dump(target, dump)
            return watch.elapsed / rows

        assert import_cost(40_000) > import_cost(5_000) * 1.15


class TestAsciiDumpAndLoader:
    def test_roundtrip(self, loaded_db):
        dump = ascii_dump_table(loaded_db, "parts")
        assert dump.num_records == 200
        target = Database("ascii-dst", clock=loaded_db.clock)
        target.create_table(parts_schema())
        loaded = ascii_load(target, "parts", dump)
        assert loaded == 200
        assert table_rows(target, "parts") == table_rows(loaded_db, "parts")

    def test_load_maintains_indexes(self, loaded_db):
        dump = ascii_dump_table(loaded_db, "parts")
        target = Database("ascii-dst", clock=loaded_db.clock)
        target.create_table(parts_schema())
        ascii_load(target, "parts", dump)
        assert len(target.table("parts").lookup("part_id", 7)) == 1

    def test_ascii_is_cross_product(self, loaded_db):
        # Unlike Export, flat files load into any product.
        dump = ascii_dump_table(loaded_db, "parts")
        other = Database("other", clock=loaded_db.clock, product="OtherDB")
        other.create_table(parts_schema())
        assert ascii_load(other, "parts", dump) == 200

    @pytest.mark.parametrize(
        "field, value, message",
        [(0, ASCII_NULL, "is NOT NULL"), (2, "x" * 40, "CHAR")],
        ids=["null-into-not-null", "over-long-char"],
    )
    def test_loader_admits_each_line(self, loaded_db, field, value, message):
        # A line the table cannot hold is refused with validation's error,
        # before it reaches a block.
        dump = ascii_dump_table(loaded_db, "parts")
        fields = dump.lines[0].split("|")
        fields[field] = value
        dump.lines[0] = "|".join(fields)
        target = Database("ascii-dst", clock=loaded_db.clock)
        target.create_table(parts_schema())
        with pytest.raises(SchemaError, match=message):
            ascii_load(target, "parts", dump)
        assert target.table("parts").num_rows == 0

    def test_loader_schema_mismatch(self, loaded_db, small_schema):
        dump = ascii_dump_table(loaded_db, "parts")
        target = Database("dst", clock=loaded_db.clock)
        target.create_table(small_schema.renamed("parts"))
        with pytest.raises(UtilityError):
            ascii_load(target, "parts", dump)

    def test_dump_rows_subset(self, loaded_db):
        schema = loaded_db.table("parts").schema
        rows = [v for _r, v in loaded_db.table("parts").scan()][:10]
        dump = ascii_dump_rows(loaded_db, schema, rows)
        assert dump.num_records == 10
        assert dump.size_bytes > 0

    def test_loader_cheaper_than_import_per_row(self, loaded_db):
        dump_ascii = ascii_dump_table(loaded_db, "parts")
        dump_export = export_table(loaded_db, "parts")

        loader_target = Database("l", clock=loaded_db.clock)
        loader_target.create_table(parts_schema())
        with loaded_db.clock.stopwatch() as loader_watch:
            ascii_load(loader_target, "parts", dump_ascii)

        import_target = Database("i", clock=loaded_db.clock)
        with loaded_db.clock.stopwatch() as import_watch:
            import_dump(import_target, dump_export)
        assert loader_watch.elapsed < import_watch.elapsed
