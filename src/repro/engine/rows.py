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

Writes pack a row **canonical as given** — each value of exactly its
column's canonical class, ``None`` only where NULL is allowed — without
validating it first (:meth:`RecordCodec.pack_canonical`): the row's tuple of
value classes picks a packer with the NULL bitmap fixed, each CHAR value is
encoded to latin-1 once and length-checked, and ``struct`` range-checks the
integers.  Any other row, or one that does not fit, is left to validation.

Reads work a heap **page** at a time: :meth:`RecordCodec.page_decoder`
decodes all the records of one page with no Python step per record — the
records joined into one image, one ``Struct.iter_unpack`` over it with the
bitmap as pad bytes too, the CHAR columns converted column-wise through
C-level ``map`` (``bytes.rstrip``, then ``bytes.decode``).  Whether any
record has a NULL *among the wanted columns* is read off the page's bitmap
bytes (a strided slice of the image, masked with ``bytes.translate``); only
those records go through the single-record decoder.  The byte layout is the
same either way.
"""

from __future__ import annotations

import struct
from functools import total_ordering
from itertools import repeat
from types import NoneType
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..errors import SchemaError, StorageError

if TYPE_CHECKING:  # pragma: no cover - schema.py imports this module
    from .schema import Column, TableSchema

#: Decodes one record into the values of the columns it was compiled for.
Decoder = Callable[[bytes], tuple[Any, ...]]

#: Decodes the records of one page into one value tuple per record.
PageDecoder = Callable[[Sequence[bytes]], "list[tuple[Any, ...]]"]

#: A FLOAT column's eight bytes in a record.
_FLOAT = struct.Struct(">d")

#: Packs a row of one canonical class pattern into its record, or returns
#: ``None`` when a CHAR value is too long for its column.
Packer = Callable[[tuple[Any, ...]], "bytes | None"]

#: What an unvalidated value raises on its way into a record: ``pack`` on a
#: wrong type or an out-of-range number, ``str.encode`` on non-latin-1 text,
#: and a non-string where CHAR expects one.
_UNSTORABLE = (
    struct.error, UnicodeEncodeError, AttributeError, TypeError, OverflowError
)


@total_ordering
class RowId:
    """Physical address of a record: (page number, slot number).

    Immutable; equal only to a ``RowId`` of the same address, hashed as the
    ``(page_no, slot_no)`` pair and ordered by it (``<`` here, the rest
    derived from it and ``==``).  Written by hand because
    a scan builds one per row it yields: the two slots are filled through
    their descriptors, which costs a third of what a frozen dataclass's
    ``object.__setattr__`` calls do.
    """

    __slots__ = ("page_no", "slot_no")

    page_no: int
    slot_no: int

    def __init__(self, page_no: int, slot_no: int) -> None:
        _set_page_no(self, page_no)
        _set_slot_no(self, slot_no)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a RowId")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a RowId")

    def __reduce__(self) -> tuple[Any, ...]:
        return RowId, (self.page_no, self.slot_no)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is RowId:
            return (
                self.page_no == other.page_no  # type: ignore[attr-defined]
                and self.slot_no == other.slot_no  # type: ignore[attr-defined]
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.page_no, self.slot_no))

    def __lt__(self, other: RowId) -> bool:
        if other.__class__ is RowId:
            return (self.page_no, self.slot_no) < (other.page_no, other.slot_no)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RowId({self.page_no}:{self.slot_no})"


_set_page_no = RowId.page_no.__set__  # type: ignore[attr-defined]
_set_slot_no = RowId.slot_no.__set__  # type: ignore[attr-defined]


class RecordCodec:
    """The compiled record layout of one table schema.

    Built once per :class:`~repro.engine.schema.TableSchema` from the format
    fragment each column's datatype contributes.  :meth:`encode` and
    :attr:`decode` convert whole rows; :meth:`decoder` compiles (and
    remembers) the decoder of a subset of the columns, and
    :meth:`page_decoder` the decoder of a whole page's records at once.
    """

    def __init__(self, table: str, columns: Sequence[Column]) -> None:
        self._table = table
        self._columns = tuple(columns)
        self.bitmap_bytes = (len(self._columns) + 7) // 8
        self._no_nulls = bytes(self.bitmap_bytes)
        #: The decoders compiled so far, by the column positions they read:
        #: one entry per distinct column subset the schema's statements use.
        self._decoders: dict[tuple[int, ...], Decoder] = {}
        self._page_decoders: dict[tuple[int, ...], PageDecoder] = {}
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
        #: Per FLOAT (and TIMESTAMP) column, its byte offset in the record:
        #: where :meth:`patch` writes a float in place.
        self._float_offsets: dict[int, int] = {}
        offset = self.bitmap_bytes
        for slot, column in enumerate(self._columns):
            if column.datatype.struct_format == "d":
                self._float_offsets[slot] = offset
            offset += column.datatype.width
        #: Per column, the classes of the values it takes as given: its
        #: datatype's canonical class, and ``None``'s where NULL is allowed.
        self._canonical = tuple(
            frozenset((column.datatype.canonical_class, NoneType))
            if column.nullable
            else frozenset((column.datatype.canonical_class,))
            for column in self._columns
        )
        #: The packers compiled so far, by the value classes of the rows they
        #: pack: one entry per NULL pattern the table's rows arrive in.
        self._packers: dict[tuple[type, ...], Packer] = {}
        #: Decodes a whole record into the full value tuple.
        self.decode: Decoder = self.decoder(everything)
        #: Decodes one page's records into their full value tuples.
        self.decode_page: PageDecoder = self.page_decoder(everything)

    def _layout(self, positions: Sequence[int], bitmap: str = "s") -> struct.Struct:
        """The record as one Struct; columns not in ``positions`` are padding
        (and so is the NULL bitmap, when ``bitmap`` is ``"x"``)."""
        wanted = set(positions)
        fields = [
            column.datatype.struct_format
            if position in wanted
            else f"{column.datatype.width}x"
            for position, column in enumerate(self._columns)
        ]
        return struct.Struct(f">{self.bitmap_bytes}{bitmap}" + "".join(fields))

    # ------------------------------------------------------------------ admit
    def pack_canonical(self, row: tuple[Any, ...]) -> bytes | None:
        """The record of ``row`` if ``row`` is canonical as given, else ``None``.

        Canonical as given means validation would return the row as it is:
        each value is of exactly its column's canonical class (``int``,
        ``float``, ``str``), or ``None`` where the column is nullable — and
        it fits, which packing checks on the way: ``struct`` refuses an
        INTEGER outside 64 bits, and each CHAR value is encoded to latin-1
        once and its length checked — and its last character, since a value
        that ends in the pad is not the one its record reads back.  The row's
        tuple of value classes is looked up in a memo of the patterns found
        canonical, each with its packer (bitmap and NULL slots fixed); a wrong
        class, a wrong arity, a padded value or a value that does not fit
        gives ``None``, and the caller takes the checked path
        (:meth:`~repro.engine.schema.TableSchema.admit`).
        """
        classes = tuple(map(type, row))
        try:
            pack = self._packers[classes]
        except KeyError:
            if len(classes) != len(self._columns) or not all(
                map(frozenset.__contains__, self._canonical, classes)
            ):
                return None
            pack = self._packers[classes] = self._packer(classes)
        try:
            return pack(row)
        except (struct.error, UnicodeEncodeError):
            return None

    def _packer(self, classes: tuple[type, ...]) -> Packer:
        """The packer of rows whose values are of the canonical ``classes``."""
        nulls = [slot for slot, cls in enumerate(classes) if cls is NoneType]
        bitmap = sum(1 << slot for slot in nulls).to_bytes(self.bitmap_bytes, "little")
        fills = tuple((slot, self._null_fill[slot]) for slot in nulls)
        text = tuple(
            (slot, width)
            for slot, width in self._text
            if classes[slot] is not NoneType
        )
        pack = self._pack

        def pack_row(row: tuple[Any, ...]) -> bytes | None:
            fields = list(row)
            for slot, width in text:
                data = fields[slot].encode("latin-1")
                # struct would cut it; validation would strip the pad
                if len(data) > width or data[-1:] == b" ":
                    return None
                fields[slot] = data.ljust(width)
            for slot, fill in fills:
                fields[slot] = fill
            return pack(bitmap, *fields)

        return pack_row

    def patch(self, record: bytes, values: Sequence[Any], slot: int) -> bytes:
        """The record of ``values``, which differ from the admitted ``record``'s
        only in column ``slot``.

        A float into a FLOAT column (the timestamp stamp) is written over its
        eight bytes and the column's NULL bit cleared; any other change
        encodes ``values`` anew (:meth:`encode`, with its checks and errors).
        """
        value = values[slot]
        offset = self._float_offsets.get(slot)
        if offset is None or value.__class__ is not float:
            return self.encode(values)
        image = bytearray(record)
        _FLOAT.pack_into(image, offset, value)
        image[slot >> 3] &= ~(1 << (slot & 7))
        return bytes(image)

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
            except SchemaError as reason:
                return StorageError(
                    f"cannot store {value!r} in {self._table}.{column.name}: {reason}"
                )
        return StorageError(
            f"cannot encode row {tuple(values)!r} for {self._table!r}: {cause}"
        )

    # ----------------------------------------------------------------- decode
    def _text_slots(self, positions: Sequence[int]) -> tuple[int, ...]:
        """Which of the values read at ``positions`` ``struct`` hands over
        as CHAR bytes."""
        return tuple(
            slot for slot, position in enumerate(positions)
            if self._columns[position].datatype.is_text
        )

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
        text = self._text_slots(positions)

        def mismatch(record: bytes) -> StorageError:
            return _wrong_size(record, table, record_size)

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

    def page_decoder(self, positions: tuple[int, ...]) -> PageDecoder:
        """The decoder of one page's records, reading the columns at
        ``positions`` (as for :meth:`decoder`): a list of records in, the
        list of their value tuples out.  Compiled on first use and kept.
        A single record — what a one-slot patch decodes — goes straight to
        the single-record decoder, skipping the page path's fixed cost.
        """
        try:
            return self._page_decoders[positions]
        except KeyError:
            decode = self._page_decoders[positions] = self._compile_page(positions)
            return decode

    def _compile_page(self, positions: tuple[int, ...]) -> PageDecoder:
        decode_one = self.decoder(positions)  # refuses positions out of order
        unpack_all = self._layout(positions, bitmap="x").iter_unpack
        table, record_size = self._table, self.record_size
        text = self._text_slots(positions)
        # Per bitmap byte that carries a wanted column: where it is in the
        # record, and the translation that clears every other column's bit.
        masks = []
        for offset in range(self.bitmap_bytes):
            wanted = sum(1 << p % 8 for p in positions if p // 8 == offset)
            if wanted:
                masks.append((offset, bytes(bits & wanted for bits in range(256))))

        def decode_page(records: Sequence[bytes]) -> list[tuple[Any, ...]]:
            if len(records) == 1:  # a written slot's patch: no page's setup
                return [decode_one(records[0])]
            image = b"".join(records)
            if len(image) != len(records) * record_size:
                wrong = next(r for r in records if len(r) != record_size)
                raise _wrong_size(wrong, table, record_size)
            rows = list(unpack_all(image))
            if text and rows:
                columns = list(zip(*rows))
                for slot in text:
                    # The pad is stripped as bytes: 0x20 is the space of
                    # latin-1, and a shorter value is cheaper to decode.
                    stripped = map(bytes.rstrip, columns[slot], repeat(b" "))
                    columns[slot] = map(bytes.decode, stripped, repeat("latin-1"))
                rows = list(zip(*columns))
            for offset, wanted_bits in masks:
                marked = image[offset::record_size].translate(wanted_bits)
                if any(marked):  # a NULL the caller asked for: rare
                    for at, bits in enumerate(marked):
                        if bits:
                            rows[at] = decode_one(records[at])
            return rows

        return decode_page


def _wrong_size(record: bytes, table: str, record_size: int) -> StorageError:
    return StorageError(
        f"record size {len(record)} does not match schema "
        f"{table!r} ({record_size} bytes)"
    )


def encode_row(schema: TableSchema, values: Sequence[Any]) -> bytes:
    """Encode a validated value tuple into the schema's fixed-width record."""
    return schema.codec.encode(values)


def decode_row(schema: TableSchema, record: bytes) -> tuple[Any, ...]:
    """Decode a fixed-width record back into a value tuple."""
    return schema.codec.decode(record)


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
    """Parse one pipe-delimited line back into a value tuple.

    Each field is read as its column's type (``int``, ``float`` or text); the
    tuple is not validated — the Loader admits it like any written row
    (:meth:`TableSchema.admit`).
    """
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
    return tuple(values)


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
