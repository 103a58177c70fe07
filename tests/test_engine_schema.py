"""Tests for table schemas and schema diffing."""

import pytest

from repro.engine.schema import Column, TableSchema, diff_schemas
from repro.engine.types import FLOAT, INTEGER, TIMESTAMP, char
from repro.errors import SchemaError


def make_schema(**kwargs) -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("id", INTEGER, nullable=False),
            Column("name", char(8)),
            Column("price", FLOAT),
            Column("modified", TIMESTAMP),
        ],
        **kwargs,
    )


class TestTableSchema:
    def test_record_size_is_fixed_width(self):
        schema = make_schema()
        # 1 bitmap byte (4 cols) + 8 + 8 + 8 + 8 = 33
        assert schema.record_size == 1 + 8 + 8 + 8 + 8

    def test_column_lookup(self):
        schema = make_schema()
        assert schema.column("name").datatype == char(8)
        assert schema.column_index("price") == 2

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_schema().column("missing")

    def test_column_names_is_built_once(self):
        schema = make_schema()
        assert schema.column_names is schema.column_names

    def test_primary_key_made_not_null(self):
        schema = TableSchema("t", [Column("id", INTEGER)], primary_key="id")
        assert schema.column("id").nullable is False

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            make_schema(primary_key="nope")

    def test_timestamp_column_autodetected(self):
        assert make_schema().timestamp_column == "modified"

    def test_timestamp_column_explicit_must_exist(self):
        with pytest.raises(SchemaError):
            make_schema(timestamp_column="nope")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a", INTEGER), Column("a", INTEGER)])

    def test_empty_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [])

    def test_invalid_column_name(self):
        with pytest.raises(SchemaError):
            Column("bad name", INTEGER)


class TestValidateValues:
    def test_canonicalises(self):
        schema = make_schema()
        values = schema.validate_values((1, "x", 3, None))
        assert values == (1, "x", 3.0, None)
        assert isinstance(values[2], float)

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            make_schema().validate_values((1, "x"))

    def test_not_null_enforced(self):
        schema = make_schema(primary_key="id")
        with pytest.raises(SchemaError):
            schema.validate_values((None, "x", 1.0, None))

    def test_nullable_allows_none(self):
        schema = make_schema()
        assert make_schema().validate_values((1, None, None, None))[1] is None
        del schema


class TestDerivedSchemas:
    def test_renamed_preserves_shape(self):
        schema = make_schema(primary_key="id")
        clone = schema.renamed("t2")
        assert clone.name == "t2"
        assert clone.signature() == schema.signature()
        assert clone.primary_key == "id"

    def test_project_keeps_requested_columns(self):
        schema = make_schema(primary_key="id")
        projected = schema.project("v", ["id", "price"])
        assert projected.column_names == ("id", "price")
        assert projected.primary_key == "id"

    def test_project_drops_lost_key(self):
        schema = make_schema(primary_key="id")
        projected = schema.project("v", ["name", "price"])
        assert projected.primary_key is None

    def test_equality_structural(self):
        assert make_schema() == make_schema()
        assert make_schema() != make_schema(primary_key="id")


class TestDiffSchemas:
    def test_identical(self):
        diff = diff_schemas(make_schema(), make_schema())
        assert diff.identical

    def test_missing_column(self):
        target = TableSchema("t", [Column("id", INTEGER)])
        diff = diff_schemas(make_schema(), target)
        assert "name" in diff.missing_columns
        assert not diff.identical

    def test_extra_column(self):
        source = TableSchema("t", [Column("id", INTEGER)])
        diff = diff_schemas(source, make_schema())
        assert "price" in diff.extra_columns

    def test_type_mismatch(self):
        target = TableSchema(
            "t",
            [
                Column("id", INTEGER, nullable=False),
                Column("name", char(16)),  # wider CHAR
                Column("price", FLOAT),
                Column("modified", TIMESTAMP),
            ],
        )
        diff = diff_schemas(make_schema(), target)
        assert diff.type_mismatches == ["name"]
