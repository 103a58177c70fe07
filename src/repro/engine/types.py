"""Column datatypes with fixed-width binary codecs.

The engine stores fixed-width records (the paper's experiments use 100-byte
records throughout), so every datatype knows its exact on-page width, the
:mod:`struct` format of one stored value — the fragment it contributes to
the whole-record codec :class:`repro.engine.rows.RecordCodec` compiles per
schema — and how to encode/decode a single value on its own.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from typing import Any

from ..errors import SchemaError


class DataType(ABC):
    """Abstract column datatype."""

    #: SQL spelling used by DDL and ``repr``.
    name: str = "?"
    #: Exact encoded width in bytes.
    width: int
    #: ``struct`` format of one stored value (big-endian, no byte-order
    #: prefix); packs and unpacks exactly ``width`` bytes.
    struct_format: str
    #: Whether the stored value is latin-1 text, which ``struct`` carries as
    #: bytes: the record codec space-pads it going in and decodes it coming out.
    is_text: bool = False

    @abstractmethod
    def validate(self, value: Any) -> Any:
        """Coerce ``value`` to the canonical Python value or raise SchemaError."""

    @abstractmethod
    def encode(self, value: Any) -> bytes:
        """Encode a (validated, non-null) value into exactly ``width`` bytes."""

    @abstractmethod
    def decode(self, data: bytes) -> Any:
        """Decode ``width`` bytes back into a Python value."""

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.width == getattr(other, "width", None)

    def __hash__(self) -> int:
        return hash((type(self), self.width))


class IntegerType(DataType):
    """64-bit signed integer."""

    name = "INTEGER"
    width = 8
    struct_format = "q"
    _codec = struct.Struct(">" + struct_format)

    def validate(self, value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"INTEGER column cannot store {value!r}")
        if not -(2**63) <= value < 2**63:
            raise SchemaError(f"INTEGER value out of range: {value}")
        return value

    def encode(self, value: int) -> bytes:
        return self._codec.pack(value)

    def decode(self, data: bytes) -> int:
        return self._codec.unpack(data)[0]


class FloatType(DataType):
    """64-bit IEEE-754 float."""

    name = "FLOAT"
    width = 8
    struct_format = "d"
    _codec = struct.Struct(">" + struct_format)

    def validate(self, value: Any) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"FLOAT column cannot store {value!r}")
        return float(value)

    def encode(self, value: float) -> bytes:
        return self._codec.pack(value)

    def decode(self, data: bytes) -> float:
        return self._codec.unpack(data)[0]


class TimestampType(FloatType):
    """Virtual timestamp (milliseconds on the experiment's virtual clock).

    Stored exactly like a FLOAT; kept as a distinct type so that schemas can
    declare which column carries the ``last_modified`` semantics the
    timestamp-based extraction method (paper §3.1.1) relies on.
    """

    name = "TIMESTAMP"


class CharType(DataType):
    """Fixed-width ``CHAR(n)`` string, space padded, latin-1 encoded."""

    name = "CHAR"
    is_text = True

    def __init__(self, length: int) -> None:
        if length <= 0:
            raise SchemaError(f"CHAR length must be positive, got {length}")
        self.length = length
        self.width = length
        self.struct_format = f"{length}s"
        self.name = f"CHAR({length})"

    def validate(self, value: Any) -> str:
        if not isinstance(value, str):
            raise SchemaError(f"{self.name} column cannot store {value!r}")
        if len(value) > self.length:
            raise SchemaError(
                f"value of length {len(value)} exceeds {self.name}: {value!r}"
            )
        try:
            value.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise SchemaError(f"{self.name} only stores latin-1 text: {value!r}") from exc
        return value

    def encode(self, value: str) -> bytes:
        return value.encode("latin-1").ljust(self.length, b" ")

    def decode(self, data: bytes) -> str:
        return data.decode("latin-1").rstrip(" ")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CharType) and other.length == self.length

    def __hash__(self) -> int:
        return hash((CharType, self.length))


#: Singleton instances for the width-fixed types.
INTEGER = IntegerType()
FLOAT = FloatType()
TIMESTAMP = TimestampType()


def char(length: int) -> CharType:
    """Convenience constructor: ``char(12) == CharType(12)``."""
    return CharType(length)


def type_from_sql(name: str, argument: int | None = None) -> DataType:
    """Resolve a SQL type spelling (``INTEGER``, ``CHAR(12)``...) to a DataType."""
    upper = name.upper()
    if upper in ("INTEGER", "INT", "BIGINT"):
        return INTEGER
    if upper in ("FLOAT", "DOUBLE", "REAL"):
        return FLOAT
    if upper == "TIMESTAMP":
        return TIMESTAMP
    if upper in ("CHAR", "VARCHAR"):
        if argument is None:
            raise SchemaError(f"{upper} requires a length argument")
        return CharType(argument)
    raise SchemaError(f"unknown SQL type: {name!r}")
