"""Table schemas: named, typed, fixed-width record layouts.

A :class:`TableSchema` is an ordered list of :class:`Column` definitions plus
an optional primary key.  It owns the binary record layout — a null bitmap
followed by the fixed-width encoded columns, compiled once into a
:class:`repro.engine.rows.RecordCodec` — which gives every table a constant
record size: the paper's experiments are all phrased in terms of "100-byte
records".

It also owns admission, the one step a written row takes before it is
stored: :meth:`TableSchema.admit` returns the canonical values and the
record together — in one pass for a row canonical as given, through
:meth:`TableSchema.validate_values` and the codec's checked encode for any
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from ..errors import SchemaError
from .rows import RecordCodec
from .types import DataType, TimestampType


@dataclass(frozen=True)
class Column:
    """One column: a name, a datatype and nullability."""

    name: str
    datatype: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")

    def __repr__(self) -> str:
        null = "" if self.nullable else " NOT NULL"
        return f"{self.name} {self.datatype!r}{null}"


class TableSchema:
    """An ordered set of columns with an optional primary key.

    Parameters
    ----------
    name:
        Table name (catalog key).
    columns:
        Ordered column definitions.
    primary_key:
        Name of the primary-key column, if any.  Primary-key columns are
        implicitly NOT NULL and get a unique index when the table is created.
    timestamp_column:
        Name of the column that carries last-modified semantics, used by the
        timestamp extraction method.  Defaults to the first TIMESTAMP column.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: str | None = None,
        timestamp_column: str | None = None,
    ) -> None:
        if not name:
            raise SchemaError("table name cannot be empty")
        if not columns:
            raise SchemaError(f"table {name!r} must have at least one column")
        names = [column.name for column in columns]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SchemaError(f"duplicate column names in {name!r}: {sorted(duplicates)}")

        self.name = name
        self.columns: tuple[Column, ...] = tuple(
            column
            if column.name != primary_key or not column.nullable
            else Column(column.name, column.datatype, nullable=False)
            for column in columns
        )
        self.column_names: tuple[str, ...] = tuple(c.name for c in self.columns)
        self._index_of: dict[str, int] = {
            name: i for i, name in enumerate(self.column_names)
        }

        if primary_key is not None and primary_key not in self._index_of:
            raise SchemaError(f"primary key {primary_key!r} is not a column of {name!r}")
        self.primary_key = primary_key

        if timestamp_column is None:
            timestamp_column = next(
                (c.name for c in self.columns if isinstance(c.datatype, TimestampType)),
                None,
            )
        elif timestamp_column not in self._index_of:
            raise SchemaError(
                f"timestamp column {timestamp_column!r} is not a column of {name!r}"
            )
        self.timestamp_column = timestamp_column

        #: The record layout, compiled once (see :mod:`repro.engine.rows`).
        self.codec = RecordCodec(name, self.columns)
        self.null_bitmap_bytes = self.codec.bitmap_bytes
        self.record_size = self.codec.record_size

    # ------------------------------------------------------------------ access
    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def has_column(self, name: str) -> bool:
        return name in self._index_of

    def column(self, name: str) -> Column:
        try:
            return self.columns[self._index_of[name]]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def column_index(self, name: str) -> int:
        try:
            return self._index_of[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def primary_key_index(self) -> int | None:
        if self.primary_key is None:
            return None
        return self._index_of[self.primary_key]

    # --------------------------------------------------------------- validation
    def admit(self, values: Sequence[Any]) -> tuple[tuple[Any, ...], bytes]:
        """Admit a row for writing: its canonical value tuple and its record.

        The one admission step of the write path.  A row whose values are
        canonical as given is packed in one pass
        (:meth:`RecordCodec.pack_canonical`); any other goes through
        :meth:`validate_values` and then :meth:`RecordCodec.encode`, so every
        canonicalisation and every error is theirs.
        """
        row = values if values.__class__ is tuple else tuple(values)
        record = self.codec.pack_canonical(row)
        if record is None:
            row = self.validate_values(row)
            record = self.codec.encode(row)
        return row, record

    def validate_values(self, values: Sequence[Any]) -> tuple[Any, ...]:
        """Validate a positional value tuple against the schema.

        Returns the canonicalised tuple (e.g. ints coerced to float for FLOAT
        columns).  Raises :class:`SchemaError` on arity mismatch, type
        mismatch, or NULL in a NOT NULL column.
        """
        if len(values) != len(self.columns):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        canonical = []
        for column, value in zip(self.columns, values):
            if value is None:
                if not column.nullable:
                    raise SchemaError(
                        f"column {self.name}.{column.name} is NOT NULL"
                    )
                canonical.append(None)
            else:
                canonical.append(column.datatype.validate(value))
        return tuple(canonical)

    # ------------------------------------------------------------------ derive
    def renamed(self, new_name: str) -> "TableSchema":
        """A copy of this schema under a different table name."""
        return TableSchema(
            new_name,
            self.columns,
            primary_key=self.primary_key,
            timestamp_column=self.timestamp_column,
        )

    def project(self, new_name: str, column_names: Iterable[str]) -> "TableSchema":
        """A schema holding only ``column_names`` (order preserved as given)."""
        columns = [self.column(name) for name in column_names]
        pk = self.primary_key if self.primary_key in {c.name for c in columns} else None
        ts = (
            self.timestamp_column
            if self.timestamp_column in {c.name for c in columns}
            else None
        )
        return TableSchema(new_name, columns, primary_key=pk, timestamp_column=ts)

    def signature(self) -> tuple:
        """A hashable structural signature (used for schema-match checks)."""
        return tuple((c.name, c.datatype.name, c.nullable) for c in self.columns)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TableSchema)
            and self.name == other.name
            and self.signature() == other.signature()
            and self.primary_key == other.primary_key
        )

    def __repr__(self) -> str:
        cols = ", ".join(repr(c) for c in self.columns)
        pk = f", PRIMARY KEY ({self.primary_key})" if self.primary_key else ""
        return f"TableSchema({self.name!r}: {cols}{pk})"


@dataclass
class SchemaDiff:
    """Structural differences between two schemas (for heterogeneity checks)."""

    missing_columns: list[str] = field(default_factory=list)
    extra_columns: list[str] = field(default_factory=list)
    type_mismatches: list[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not (self.missing_columns or self.extra_columns or self.type_mismatches)


def diff_schemas(source: TableSchema, target: TableSchema) -> SchemaDiff:
    """Compare two schemas structurally (names and types, order-insensitive).

    Log-based value-delta extraction (paper §3.1.4) requires the source and
    destination schemas to match exactly; this is the check it uses.
    """
    diff = SchemaDiff()
    source_cols = {c.name: c for c in source.columns}
    target_cols = {c.name: c for c in target.columns}
    for name, column in source_cols.items():
        if name not in target_cols:
            diff.missing_columns.append(name)
        elif target_cols[name].datatype != column.datatype:
            diff.type_mismatches.append(name)
    diff.extra_columns.extend(sorted(set(target_cols) - set(source_cols)))
    diff.missing_columns.sort()
    diff.type_mismatches.sort()
    return diff
