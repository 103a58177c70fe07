"""Property-based tests: row codec, ASCII format, SQL literal round trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.rows import decode_row, encode_row, format_ascii, parse_ascii
from repro.engine.schema import Column, TableSchema
from repro.engine.types import FLOAT, INTEGER, TIMESTAMP, char
from repro.sql.ast_nodes import sql_literal
from repro.sql.parser import parse_expression

SCHEMA = TableSchema(
    "t",
    [
        Column("id", INTEGER, nullable=False),
        Column("name", char(20)),
        Column("price", FLOAT),
        Column("ts", TIMESTAMP),
        Column("qty", INTEGER),
    ],
    primary_key="id",
)

# latin-1 text without trailing spaces (CHAR strips them) or control chars.
_char_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=255),
    max_size=20,
).map(lambda s: s.rstrip(" "))

_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

_rows = st.tuples(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.one_of(st.none(), _char_text),
    st.one_of(st.none(), _floats),
    st.one_of(st.none(), _floats),
    st.one_of(st.none(), st.integers(min_value=-(2**63), max_value=2**63 - 1)),
)


@given(_rows)
def test_binary_codec_roundtrip(row):
    validated = SCHEMA.validate_values(row)
    record = encode_row(SCHEMA, validated)
    assert len(record) == SCHEMA.record_size
    assert decode_row(SCHEMA, record) == validated


# ------------------------------------------------- compiled codec vs oracle
# The compiled codec (one struct call per record) against the per-field
# reference it replaced, over random record layouts: 1-20 columns, so one-,
# two- and three-byte null bitmaps.

_INT_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1]
_integers = st.one_of(
    st.sampled_from(_INT_EDGES),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
_any_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf")]),
    st.floats(allow_nan=False, width=64),
)


def _values_of(datatype):
    if datatype is INTEGER:
        return _integers
    if datatype in (FLOAT, TIMESTAMP):
        return _any_floats
    # Every latin-1 code point, NUL and high bytes included; trailing spaces
    # are allowed here (the codec pads with them, decoding strips them).
    return st.text(
        alphabet=st.characters(min_codepoint=0, max_codepoint=255),
        max_size=datatype.length,
    )


_datatypes = st.one_of(
    st.sampled_from([INTEGER, FLOAT, TIMESTAMP]),
    st.integers(min_value=1, max_value=24).map(char),
)


@st.composite
def _layouts(draw):
    """A random schema, a row with NULLs, a row without, a column subset."""
    types = draw(st.lists(_datatypes, min_size=1, max_size=20))
    schema = TableSchema("r", [Column(f"c{i}", t) for i, t in enumerate(types)])
    dense = tuple(draw(_values_of(t)) for t in types)
    nulls = draw(st.lists(st.booleans(), min_size=len(types), max_size=len(types)))
    sparse = tuple(None if null else v for null, v in zip(nulls, dense))
    subset = tuple(
        sorted(draw(st.sets(st.integers(min_value=0, max_value=len(types) - 1))))
    )
    return schema, sparse, dense, subset


def _reference_record(schema, row):
    """The record assembled field by field from the documented layout."""
    bitmap = bytearray((len(schema.columns) + 7) // 8)
    body = []
    for i, (column, value) in enumerate(zip(schema.columns, row)):
        if value is None:
            bitmap[i // 8] |= 1 << (i % 8)
            body.append(bytes(column.datatype.width))
        else:
            body.append(column.datatype.encode(value))
    return bytes(bitmap) + b"".join(body)


def _reference_row(schema, record):
    """The per-field decode of ``record``."""
    offset = (len(schema.columns) + 7) // 8
    values = []
    for i, column in enumerate(schema.columns):
        width = column.datatype.width
        if record[i // 8] & (1 << (i % 8)):
            values.append(None)
        else:
            values.append(column.datatype.decode(record[offset : offset + width]))
        offset += width
    return tuple(values)


def _identical(left, right):
    """Tuple equality that also tells -0.0 from 0.0 and 1 from 1.0."""
    return repr(left) == repr(right)


@given(_layouts())
@settings(max_examples=300)
def test_compiled_codec_matches_the_per_field_oracle(layout):
    schema, sparse, dense, _subset = layout
    for row in (sparse, dense, (None,) * len(schema.columns)):
        record = encode_row(schema, row)
        assert record == _reference_record(schema, row)
        assert len(record) == schema.record_size
        decoded = decode_row(schema, record)
        assert _identical(decoded, _reference_row(schema, record))
        # Decoding inverts encoding: up to the trailing spaces CHAR strips,
        # the values come back, and they re-encode to the same bytes.
        assert _identical(
            decoded,
            tuple(v.rstrip(" ") if isinstance(v, str) else v for v in row),
        )
        assert encode_row(schema, decoded) == record


@given(_layouts())
@settings(max_examples=300)
def test_pruned_decode_is_the_full_decode_restricted(layout):
    schema, sparse, dense, subset = layout
    unread_nulls = tuple(
        value if position in subset else None
        for position, value in enumerate(dense)
    )
    decode = schema.codec.decoder(subset)
    for row in (sparse, dense, unread_nulls, (None,) * len(schema.columns)):
        record = encode_row(schema, row)
        full = decode_row(schema, record)
        assert _identical(decode(record), tuple(full[i] for i in subset))


@given(_layouts(), st.lists(st.integers(min_value=0, max_value=3), max_size=12))
@settings(max_examples=300)
def test_page_decoder_is_the_single_record_decoder_is_the_per_field_decode(
    layout, order
):
    schema, sparse, dense, subset = layout
    unread_nulls = tuple(
        value if position in subset else None
        for position, value in enumerate(dense)
    )
    kinds = (sparse, dense, unread_nulls, (None,) * len(schema.columns))
    # A page of the four kinds of record in a drawn order (an empty page too).
    records = [encode_row(schema, kinds[kind]) for kind in order]
    for positions in (subset, tuple(range(len(schema.columns)))):
        decode_one = schema.codec.decoder(positions)
        one_by_one = [decode_one(record) for record in records]
        assert _identical(schema.codec.page_decoder(positions)(records), one_by_one)
        assert _identical(
            one_by_one,
            [
                tuple(_reference_row(schema, record)[i] for i in positions)
                for record in records
            ],
        )


@given(_rows)
def test_ascii_roundtrip(row):
    validated = SCHEMA.validate_values(row)
    line = format_ascii(SCHEMA, validated)
    assert "\n" not in line
    assert parse_ascii(SCHEMA, line) == validated


@given(
    st.one_of(
        st.none(),
        st.integers(min_value=-(2**62), max_value=2**62),
        _floats,
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=255),
            max_size=30,
        ),
    )
)
@settings(max_examples=200)
def test_sql_literal_roundtrip(value):
    """Rendering a value as a SQL literal and re-parsing it preserves it.

    This property underpins Op-Delta: captured statements render row values
    as literals, and the warehouse re-parses them.
    """
    from repro.sql.expressions import evaluate

    rendered = sql_literal(value)
    parsed = evaluate(parse_expression(rendered), {})
    assert parsed == value
