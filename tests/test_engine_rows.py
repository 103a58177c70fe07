"""Tests for the row codec and ASCII dump-line format."""

import pytest

from repro.engine.rows import (
    RowId,
    decode_row,
    encode_row,
    format_ascii,
    parse_ascii,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.types import FLOAT, INTEGER, char
from repro.errors import StorageError


@pytest.fixture
def schema() -> TableSchema:
    return TableSchema(
        "t",
        [
            Column("id", INTEGER, nullable=False),
            Column("name", char(12)),
            Column("price", FLOAT),
        ],
    )


class TestBinaryCodec:
    def test_roundtrip(self, schema):
        row = (7, "widget", 1.25)
        assert decode_row(schema, encode_row(schema, row)) == row

    def test_roundtrip_with_nulls(self, schema):
        row = (7, None, None)
        assert decode_row(schema, encode_row(schema, row)) == row

    def test_record_size_constant(self, schema):
        assert len(encode_row(schema, (1, "a", 1.0))) == schema.record_size
        assert len(encode_row(schema, (1, None, None))) == schema.record_size

    def test_wrong_arity(self, schema):
        with pytest.raises(StorageError):
            encode_row(schema, (1, "a"))

    def test_decode_wrong_size(self, schema):
        with pytest.raises(StorageError):
            decode_row(schema, b"\x00" * 3)

    def test_pruned_decoder_reads_only_its_columns(self, schema):
        record = encode_row(schema, (7, None, 1.25))
        assert schema.codec.decoder((0, 2))(record) == (7, 1.25)
        assert schema.codec.decoder((1,))(record) == (None,)
        assert schema.codec.decoder(())(record) == ()
        # One compiled decoder per distinct column subset.
        assert schema.codec.decoder((0, 2)) is schema.codec.decoder((0, 2))
        with pytest.raises(StorageError):
            schema.codec.decoder((1,))(record[:-1])
        for positions in [(2, 0), (0, 0), (3,), (-1,)]:
            with pytest.raises(StorageError, match="ascending positions"):
                schema.codec.decoder(positions)


    def test_page_decoder_decodes_a_page_of_records(self, schema):
        rows = [(7, None, 1.25), (8, "b  ", None), (9, "", 0.5)]
        records = [encode_row(schema, row) for row in rows]
        codec = schema.codec
        assert codec.decode_page(records) == [(7, None, 1.25), (8, "b", None), (9, "", 0.5)]
        assert codec.page_decoder((1,))(records) == [(None,), ("b",), ("",)]
        assert codec.page_decoder(())(records) == [(), (), ()]
        assert codec.decode_page([]) == []
        assert codec.page_decoder((0, 2)) is codec.page_decoder((0, 2))
        with pytest.raises(StorageError, match="ascending positions"):
            codec.page_decoder((2, 0))

    def test_page_decoder_refuses_a_wrong_sized_record(self, schema):
        record = encode_row(schema, (7, "a", 1.25))
        for page in ([record, record[:-1]], [record + b" "], [b""]):
            with pytest.raises(StorageError, match="does not match schema 't'"):
                schema.codec.decode_page(page)
            with pytest.raises(StorageError, match="does not match schema 't'"):
                schema.codec.page_decoder((0,))(page)


class TestUnvalidatedValuesRaiseTypedErrors:
    """``encode_row`` is reached by paths that skip ``validate_values``
    (the Loader, undo): whatever does not fit must raise a StorageError
    naming the column and the value — never a bare struct/unicode error,
    and never a silently cut or padded record."""

    def test_char_longer_than_its_column(self, schema):
        with pytest.raises(StorageError, match=r"'x{13}' in t\.name"):
            encode_row(schema, (1, "x" * 13, 1.0))

    def test_integer_out_of_range(self, schema):
        with pytest.raises(StorageError, match=r"9223372036854775808 in t\.id"):
            encode_row(schema, (2**63, "a", 1.0))

    def test_string_in_an_integer_column(self, schema):
        with pytest.raises(StorageError, match=r"'seven' in t\.id"):
            encode_row(schema, ("seven", "a", 1.0))

    def test_text_outside_latin_1(self, schema):
        with pytest.raises(StorageError, match=r"in t\.name"):
            encode_row(schema, (1, "\u20ac", 1.0))

    def test_integer_in_a_char_column(self, schema):
        with pytest.raises(StorageError, match=r"12 in t\.name"):
            encode_row(schema, (1, 12, 1.0))


class TestRowId:
    def test_ordering(self):
        assert RowId(0, 5) < RowId(1, 0)
        assert RowId(1, 2) < RowId(1, 3)

    def test_hashable(self):
        assert len({RowId(0, 1), RowId(0, 1), RowId(0, 2)}) == 2

    def test_equal_to_a_row_id_of_the_same_address_only(self):
        assert RowId(3, 4) == RowId(3, 4)
        assert RowId(3, 4) != RowId(4, 3) and RowId(3, 4) != RowId(3, 5)
        assert RowId(3, 4) != (3, 4) and (3, 4) != RowId(3, 4)
        assert RowId(3, 4) != None  # noqa: E711 - the comparison is the test

    def test_hashes_as_the_frozen_dataclass_did(self):
        # hash((page_no, slot_no)): what a stored set or dict key relied on.
        for address in [(0, 0), (3, 4), (2**40, 35)]:
            assert hash(RowId(*address)) == hash(address)

    def test_ordered_by_page_then_slot_among_row_ids_only(self):
        ids = [RowId(1, 0), RowId(0, 7), RowId(0, 2), RowId(1, 0)]
        assert sorted(ids) == [RowId(0, 2), RowId(0, 7), RowId(1, 0), RowId(1, 0)]
        assert RowId(0, 7) <= RowId(0, 7) < RowId(1, 0) >= RowId(1, 0) > RowId(0, 9)
        with pytest.raises(TypeError):
            RowId(0, 1) < (0, 2)

    def test_immutable(self):
        row_id = RowId(3, 4)
        with pytest.raises(AttributeError):
            row_id.slot_no = 5
        with pytest.raises(AttributeError):
            del row_id.page_no
        with pytest.raises(AttributeError):
            row_id.extra = 1
        assert (row_id.page_no, row_id.slot_no) == (3, 4)

    def test_repr_and_copies(self):
        import copy
        import pickle

        row_id = RowId(3, 4)
        assert repr(row_id) == str(row_id) == "RowId(3:4)"
        assert copy.copy(row_id) == copy.deepcopy(row_id) == row_id
        assert pickle.loads(pickle.dumps(row_id)) == row_id


class TestAsciiFormat:
    def test_roundtrip(self, schema):
        row = schema.validate_values((7, "widget", 1.25))
        assert parse_ascii(schema, format_ascii(schema, row)) == row

    def test_null_roundtrip(self, schema):
        row = (7, None, None)
        assert parse_ascii(schema, format_ascii(schema, row)) == row

    def test_pipe_escaping(self, schema):
        row = schema.validate_values((1, "a|b", 2.0))
        line = format_ascii(schema, row)
        assert parse_ascii(schema, line) == row

    def test_backslash_escaping(self, schema):
        row = schema.validate_values((1, "a\\b", 2.0))
        assert parse_ascii(schema, format_ascii(schema, row)) == row

    def test_float_precision_preserved(self, schema):
        row = schema.validate_values((1, "x", 0.1 + 0.2))
        assert parse_ascii(schema, format_ascii(schema, row))[2] == row[2]

    def test_field_count_mismatch(self, schema):
        with pytest.raises(StorageError):
            parse_ascii(schema, "1|2")
