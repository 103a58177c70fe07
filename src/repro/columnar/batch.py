"""ColumnBatch: parallel per-column arrays with a per-window row-id space.

The row-at-a-time apply path re-reads the table per statement; a
:class:`ColumnBatch` instead holds one Python list per column, a validity
vector (live / deleted-in-window), and — when the batch mirrors an engine
table — the physical :class:`~repro.engine.rows.RowId` of each position.  Positions (indexes
into the parallel arrays) form the *per-window row-id space*: every
compiled kernel addresses rows by position, and converters map positions
back to physical row ids at commit time.

Batches are built from rows — the ones an index gathered for one
statement, or the literal rows of shippable Op-Delta windows
(:meth:`ColumnBatch.from_rows`) — or from a whole engine table
(:meth:`ColumnBatch.from_table`: one costed scan, whose image then serves
every statement of a conflict component that has no index path).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.rows import RowId
    from ..engine.table import Table


class ColumnBatch:
    """Parallel arrays per column, a validity vector, and row ids."""

    __slots__ = ("column_names", "layout", "columns", "valid", "row_ids")

    def __init__(self, column_names: Sequence[str]) -> None:
        self.column_names: tuple[str, ...] = tuple(column_names)
        #: column name -> slot in :attr:`columns` (bound once; kernels
        #: capture slots at compile time, never per row).
        self.layout: dict[str, int] = {
            name: slot for slot, name in enumerate(self.column_names)
        }
        self.columns: list[list[Any]] = [[] for _ in self.column_names]
        #: Per-position liveness: False once deleted within the window.
        self.valid: list[bool] = []
        #: Physical row id per position (None for rows not yet stored).
        self.row_ids: list["RowId | None"] = []

    # ------------------------------------------------------------ construction
    @classmethod
    def from_rows(
        cls,
        column_names: Sequence[str],
        rows: Iterable[Sequence[Any]],
        row_ids: Iterable["RowId | None"] | None = None,
    ) -> "ColumnBatch":
        """Build a batch from positional rows (no cost charges)."""
        batch = cls(column_names)
        if row_ids is None:
            for values in rows:
                batch.append(values)
        else:
            for values, row_id in zip(rows, row_ids):
                batch.append(values, row_id=row_id)
        return batch

    @classmethod
    def from_table(cls, table: "Table") -> "ColumnBatch":
        """One costed scan of an engine table into column arrays.

        This is the only place the columnar path pays scan CPU, and only
        for a statement no index reaches: the resulting image then serves
        *every* statement of the component, where the row path re-scans
        per statement.
        """
        batch = cls(table.schema.column_names)
        scanned = list(table.scan())
        if scanned:
            row_ids, rows = zip(*scanned)
            batch.columns = [list(column) for column in zip(*rows)]
            batch.valid = [True] * len(rows)
            batch.row_ids = list(row_ids)
        return batch

    # ---------------------------------------------------------------- mutation
    def append(
        self, values: Sequence[Any], row_id: "RowId | None" = None
    ) -> int:
        """Append one row; returns its position (window row id)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row width {len(values)} does not match batch width "
                f"{len(self.columns)}"
            )
        for slot, value in enumerate(values):
            self.columns[slot].append(value)
        self.valid.append(True)
        self.row_ids.append(row_id)
        return len(self.valid) - 1

    def set_row(self, position: int, values: Sequence[Any]) -> None:
        """Overwrite a position with updated values (read-your-writes)."""
        for slot, value in enumerate(values):
            self.columns[slot][position] = value

    def mark_deleted(self, position: int) -> None:
        self.valid[position] = False

    # ------------------------------------------------------------------ access
    @property
    def num_rows(self) -> int:
        """All positions ever allocated in this window's row-id space."""
        return len(self.valid)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ColumnBatch(columns={len(self.columns)}, rows={self.num_rows})"
