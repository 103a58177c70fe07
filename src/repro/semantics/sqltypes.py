"""The semantic checker's type lattice.

Engine column types (:mod:`repro.engine.types`) describe storage; the
checker needs a slightly different vocabulary for *expressions*: string
literals have no fixed width, comparisons produce booleans, NULL is a type
of its own (SQL three-valued logic), and anything touching an unresolved
name is UNKNOWN so one unknown column does not cascade into a wall of
secondary diagnostics.
"""

from __future__ import annotations

import enum
from typing import Any

from ..engine.types import CharType, DataType, IntegerType, TimestampType


class SqlType(enum.Enum):
    """Static type of a SQL expression."""

    INTEGER = "integer"
    FLOAT = "float"
    TIMESTAMP = "timestamp"
    STRING = "string"
    BOOLEAN = "boolean"
    NULL = "null"
    UNKNOWN = "unknown"

    @property
    def is_numeric(self) -> bool:
        return self in (SqlType.INTEGER, SqlType.FLOAT, SqlType.TIMESTAMP)

    @property
    def lenient(self) -> bool:
        """NULL and UNKNOWN unify with everything (no secondary errors)."""
        return self in (SqlType.NULL, SqlType.UNKNOWN)


def from_datatype(datatype: DataType) -> SqlType:
    """Map an engine column type onto the expression lattice."""
    if isinstance(datatype, TimestampType):  # before FloatType: it subclasses
        return SqlType.TIMESTAMP
    if isinstance(datatype, IntegerType):
        return SqlType.INTEGER
    if isinstance(datatype, CharType):
        return SqlType.STRING
    return SqlType.FLOAT


def from_value(value: Any) -> SqlType:
    """Static type of a literal's Python value."""
    if value is None:
        return SqlType.NULL
    if isinstance(value, bool):
        return SqlType.BOOLEAN
    if isinstance(value, int):
        return SqlType.INTEGER
    if isinstance(value, float):
        return SqlType.FLOAT
    if isinstance(value, str):
        return SqlType.STRING
    return SqlType.UNKNOWN


def comparable(left: SqlType, right: SqlType) -> bool:
    """Mirror of the evaluator's ``check_comparable``: num/num or str/str."""
    if left.lenient or right.lenient:
        return True
    if left.is_numeric and right.is_numeric:
        return True
    return left is SqlType.STRING and right is SqlType.STRING


def arithmetic_result(op: str, left: SqlType, right: SqlType) -> SqlType:
    """Result type of ``left op right`` for ``+ - * /`` on numeric inputs."""
    if left is SqlType.UNKNOWN or right is SqlType.UNKNOWN:
        return SqlType.UNKNOWN
    if left is SqlType.NULL or right is SqlType.NULL:
        return SqlType.NULL
    if op == "/":
        return SqlType.FLOAT  # true division, like the evaluator
    if SqlType.INTEGER in (left, right) and left is right:
        return SqlType.INTEGER
    if left is SqlType.INTEGER and right is SqlType.INTEGER:
        return SqlType.INTEGER
    return SqlType.FLOAT


class Fit(enum.Enum):
    """How an expression type fits a column type on assignment/insert."""

    OK = "ok"
    COERCE = "coerce"  # accepted at runtime, but semantically lossy: warn
    ERROR = "error"    # the engine would reject the value at runtime


def assignment_fit(value_type: SqlType, column_type: SqlType) -> Fit:
    """Classify storing a ``value_type`` expression into a ``column_type`` column.

    Mirrors :meth:`DataType.validate`: INTEGER columns reject floats, FLOAT
    columns silently widen ints, TIMESTAMP is stored as FLOAT.  Numerics
    into a TIMESTAMP column are fine (virtual time *is* a float); the
    suspicious direction — a TIMESTAMP expression such as ``NOW()`` landing
    in a plain numeric column — is accepted by the engine but flagged as an
    implicit coercion.
    """
    if value_type.lenient or column_type is SqlType.UNKNOWN:
        return Fit.OK
    if value_type is column_type:
        return Fit.OK
    if column_type is SqlType.FLOAT:
        if value_type is SqlType.INTEGER:
            return Fit.OK  # silent widening, same as FloatType.validate
        if value_type is SqlType.TIMESTAMP:
            return Fit.COERCE
        return Fit.ERROR
    if column_type is SqlType.TIMESTAMP:
        if value_type in (SqlType.INTEGER, SqlType.FLOAT):
            return Fit.OK  # virtual timestamps are stored as floats
        return Fit.ERROR
    if column_type is SqlType.INTEGER:
        return Fit.ERROR  # IntegerType rejects floats, strings, booleans
    return Fit.ERROR
