"""Row codec: fixed-width binary records and record identifiers.

Rows travel through the engine as plain tuples (cheap, hashable); this module
turns them into the fixed-width byte records stored on pages and back.  The
layout is::

    [ null bitmap : ceil(ncols/8) bytes ][ col0 ][ col1 ] ... [ colN ]

Bit ``i % 8`` of bitmap byte ``i // 8`` marks column ``i`` NULL.  Null
columns still occupy their full width (zero filled) so the record size is
constant per table — matching the paper's "100-byte records".  Numbers are
big-endian; CHAR is latin-1, space padded.

Everything about that layout that is fixed per schema is compiled once,
into a :class:`RecordCodec`: one :class:`struct.Struct` over the whole
record, so a row costs one ``pack``/``unpack`` call plus the work ``struct``
cannot do — str <-> padded bytes for the CHAR slots, and a fix-up of the
NULL slots that runs only when the bitmap is non-zero.  A caller that reads
only some columns asks :meth:`RecordCodec.decoder` for them and gets a
``Struct`` in which every other column is pad bytes, skipped in C.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..errors import SchemaError, StorageError

if TYPE_CHECKING:  # pragma: no cover - schema.py imports this module
    from .schema import Column, TableSchema

#: Decodes one record into the values of the columns it was compiled for.
Decoder = Callable[[bytes], tuple[Any, ...]]

#: What an unvalidated value raises on its way into a record: ``pack`` on a
#: wrong type or an out-of-range number, ``str.encode`` on non-latin-1 text,
#: and a non-string where CHAR expects one.
_UNSTORABLE = (
    struct.error, UnicodeEncodeError, AttributeError, TypeError, OverflowError
)


@dataclass(frozen=True, order=True)
class RowId:
    """Physical address of a record: (page number, slot number)."""

    page_no: int
    slot_no: int

    def __repr__(self) -> str:
        return f"RowId({self.page_no}:{self.slot_no})"


class RecordCodec:
    """The compiled record layout of one table schema.

    Built once per :class:`~repro.engine.schema.TableSchema` from the format
    fragment each column's datatype contributes.  :meth:`encode` and
    :attr:`decode` convert whole rows; :meth:`decoder` compiles (and
    remembers) the decoder of a subset of the columns.
    """

    def __init__(self, table: str, columns: Sequence[Column]) -> None:
        self._table = table
        self._columns = tuple(columns)
        self.bitmap_bytes = (len(self._columns) + 7) // 8
        self._no_nulls = bytes(self.bitmap_bytes)
        #: The decoders compiled so far, by the column positions they read:
        #: one entry per distinct column subset the schema's statements use.
        self._decoders: dict[tuple[int, ...], Decoder] = {}
        everything = tuple(range(len(self._columns)))
        layout = self._layout(everything)
        self.record_size = layout.size
        self._pack = layout.pack
        #: (slot, width) of the CHAR columns, the values ``struct`` only
        #: carries as bytes.
        self._text = tuple(
            (slot, column.datatype.width)
            for slot, column in enumerate(self._columns)
            if column.datatype.is_text
        )
        #: Per column, the value that packs to the zero bytes a NULL stores.
        self._null_fill = layout.unpack(bytes(layout.size))[1:]
        #: Decodes a whole record into the full value tuple.
        self.decode: Decoder = self.decoder(everything)

    def _layout(self, positions: Sequence[int]) -> struct.Struct:
        """The record as one Struct; columns not in ``positions`` are padding."""
        wanted = set(positions)
        fields = [
            column.datatype.struct_format
            if position in wanted
            else f"{column.datatype.width}x"
            for position, column in enumerate(self._columns)
        ]
        return struct.Struct(f">{self.bitmap_bytes}s" + "".join(fields))

    # ----------------------------------------------------------------- encode
    def encode(self, values: Sequence[Any]) -> bytes:
        """Pack a value tuple into the fixed-width record.

        The values are expected to be validated already; one that does not
        fit its column raises :class:`StorageError` — nothing is truncated.
        """
        if len(values) != len(self._columns):
            raise StorageError(
                f"cannot encode {len(values)} values into {len(self._columns)}-column "
                f"record for {self._table!r}"
            )
        fields = list(values)
        try:
            for slot, width in self._text:
                text = fields[slot]
                if text is not None:
                    # struct would cut an over-long value and NUL-pad a short one.
                    if len(text) > width:
                        raise self._rejected(values)
                    fields[slot] = text.encode("latin-1").ljust(width)
            bitmap = self._no_nulls
            if None in fields:
                bits = 0
                for slot, value in enumerate(fields):
                    if value is None:
                        bits |= 1 << slot
                        fields[slot] = self._null_fill[slot]
                bitmap = bits.to_bytes(self.bitmap_bytes, "little")
            return self._pack(bitmap, *fields)
        except _UNSTORABLE as exc:
            raise self._rejected(values, exc) from exc

    def _rejected(
        self, values: Sequence[Any], cause: Exception | None = None
    ) -> StorageError:
        """The typed error for a row :meth:`encode` cannot store."""
        for column, value in zip(self._columns, values):
            if value is None:
                continue
            try:
                column.datatype.validate(value)
            except (SchemaError, OverflowError) as reason:
                return StorageError(
                    f"cannot store {value!r} in {self._table}.{column.name}: {reason}"
                )
        return StorageError(
            f"cannot encode row {tuple(values)!r} for {self._table!r}: {cause}"
        )

    # ----------------------------------------------------------------- decode
    def decoder(self, positions: tuple[int, ...]) -> Decoder:
        """The decoder of the columns at ``positions``, in record order.

        ``positions`` are strictly ascending column positions; the decoder
        returns exactly those columns' values.  Compiled on first use and
        kept, keyed by ``positions``.
        """
        try:
            return self._decoders[positions]
        except KeyError:
            decode = self._decoders[positions] = self._compile(positions)
            return decode

    def _compile(self, positions: tuple[int, ...]) -> Decoder:
        if list(positions) != sorted(set(positions)) or any(
            not 0 <= position < len(self._columns) for position in positions
        ):
            raise StorageError(
                f"column positions {positions!r} are not ascending positions "
                f"of {self._table!r}"
            )
        # The decoders outlive this call inside ``_decoders``: they capture
        # the few values they need, not the codec (no reference cycle).
        unpack = self._layout(positions).unpack
        no_nulls, table, record_size = self._no_nulls, self._table, self.record_size
        text = tuple(
            slot
            for slot, position in enumerate(positions)
            if self._columns[position].datatype.is_text
        )

        def mismatch(record: bytes) -> StorageError:
            return StorageError(
                f"record size {len(record)} does not match schema "
                f"{table!r} ({record_size} bytes)"
            )

        def with_nulls(bitmap: bytes, values: list[Any]) -> tuple[Any, ...]:
            bits = int.from_bytes(bitmap, "little")
            for slot, position in enumerate(positions):
                if bits >> position & 1:
                    values[slot] = None
            return tuple(values)

        if not text:

            def decode_numbers(record: bytes) -> tuple[Any, ...]:
                try:
                    fields = unpack(record)
                except struct.error:
                    raise mismatch(record) from None
                if fields[0] == no_nulls:
                    return fields[1:]
                return with_nulls(fields[0], list(fields[1:]))

            return decode_numbers

        def decode(record: bytes) -> tuple[Any, ...]:
            try:
                bitmap, *values = unpack(record)
            except struct.error:
                raise mismatch(record) from None
            for slot in text:
                values[slot] = values[slot].decode("latin-1").rstrip(" ")
            if bitmap == no_nulls:
                return tuple(values)
            return with_nulls(bitmap, values)

        return decode


def encode_row(schema: TableSchema, values: Sequence[Any]) -> bytes:
    """Encode a validated value tuple into the schema's fixed-width record."""
    return schema.codec.encode(values)


def decode_row(schema: TableSchema, record: bytes) -> tuple[Any, ...]:
    """Decode a fixed-width record back into a value tuple."""
    return schema.codec.decode(record)


def row_as_dict(schema: TableSchema, values: Sequence[Any]) -> dict[str, Any]:
    """Zip a value tuple with the schema's column names."""
    return dict(zip(schema.column_names, values))


#: NULL marker in dump files (the convention real loaders use); it cannot
#: collide with data because literal backslashes are escaped to ``\\``.
ASCII_NULL = "\\N"


def format_ascii(schema: TableSchema, values: Sequence[Any]) -> str:
    """Render a row as one pipe-delimited ASCII line (dump-file format).

    This is the format the DBMS ASCII Loader of Table 1 consumes.  NULL is
    rendered as ``\\N`` (distinguishing it from an empty string); pipes and
    backslashes in CHAR data are escaped.
    """
    fields = []
    for value in values:
        if value is None:
            fields.append(ASCII_NULL)
        elif isinstance(value, float):
            fields.append(repr(value))
        else:
            fields.append(str(value).replace("\\", "\\\\").replace("|", "\\|"))
    return "|".join(fields)


def parse_ascii(schema: TableSchema, line: str) -> tuple[Any, ...]:
    """Parse one pipe-delimited line back into a validated value tuple."""
    raw_fields: list[str] = []
    current: list[str] = []
    escaping = False
    for ch in line:
        if escaping:
            current.append(ch)
            escaping = False
        elif ch == "\\":
            current.append(ch)  # keep the escape; resolved per field below
            escaping = True
        elif ch == "|":
            raw_fields.append("".join(current))
            current = []
        else:
            current.append(ch)
    raw_fields.append("".join(current))
    if len(raw_fields) != len(schema.columns):
        raise StorageError(
            f"ASCII line has {len(raw_fields)} fields, schema {schema.name!r} "
            f"expects {len(schema.columns)}: {line!r}"
        )
    values: list[Any] = []
    for column, raw in zip(schema.columns, raw_fields):
        if raw == ASCII_NULL:
            values.append(None)
            continue
        text = _unescape(raw)
        type_name = column.datatype.name
        if type_name == "INTEGER":
            values.append(int(text))
        elif type_name in ("FLOAT", "TIMESTAMP"):
            values.append(float(text))
        else:
            values.append(text)
    return schema.validate_values(values)


def _unescape(raw: str) -> str:
    out: list[str] = []
    escaping = False
    for ch in raw:
        if escaping:
            out.append(ch)
            escaping = False
        elif ch == "\\":
            escaping = True
        else:
            out.append(ch)
    return "".join(out)
