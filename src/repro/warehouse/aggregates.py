"""Materialized aggregate views (the paper's [19] connection).

§1 cites Labio, Yerneni & Garcia-Molina, *Shrinking the Warehouse Update
Window* — maintaining **aggregate** views efficiently is the other half of
making warehouse maintenance fast.  This module implements incrementally
maintainable aggregate views over one base table:

* grouping by one or more columns, with ``COUNT(*)``, ``COUNT(col)``,
  ``SUM(col)`` and ``AVG(col)`` aggregates;
* maintenance from value deltas **or** Op-Deltas with before images —
  inserts add to their group, deletes subtract, updates move contributions
  between groups; a group whose count reaches zero disappears.  Both feed
  one ``(before, after)`` row-image routine: value deltas the images they
  carry, Op-Deltas the images the operation derives;
* ``MIN``/``MAX`` are rejected: they are *not* self-maintainable under
  deletions (removing the current minimum requires re-reading the base
  data, violating requirement 1 of §2.3) — the definition-time error states
  exactly that.

AVG is stored as (sum, count) and derived on read, the standard
self-maintainable decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from ..core.opdelta import OpDelta, OpKind, derive_row_images
from ..engine.database import Database
from ..engine.schema import Column, TableSchema
from ..engine.table import InsertMode, Table
from ..engine.transactions import Transaction
from ..engine.types import FLOAT, INTEGER
from ..errors import EngineError, SelfMaintenanceError, WarehouseError
from ..extraction.deltas import ChangeKind, DeltaRecord
from ..sql import ast_nodes as ast
from ..sql.expressions import NO_SESSION, RowBinding, compile_predicate
from ..sql.parser import parse_expression

#: Aggregate functions that are self-maintainable under insert+delete.
SELF_MAINTAINABLE_FUNCTIONS = ("COUNT", "SUM", "AVG")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate column of the view: ``function(argument)``."""

    function: str
    argument: str | None = None  # None only for COUNT(*)

    def __post_init__(self) -> None:
        function = self.function.upper()
        if function in ("MIN", "MAX"):
            raise SelfMaintenanceError(
                f"{function} is not self-maintainable: deleting the current "
                f"extremum requires re-querying the base data (§2.3 req. 1)"
            )
        if function not in SELF_MAINTAINABLE_FUNCTIONS:
            raise SelfMaintenanceError(f"unknown aggregate function {function!r}")
        if function != "COUNT" and self.argument is None:
            raise SelfMaintenanceError(f"{function} requires a column argument")
        object.__setattr__(self, "function", function)

    @property
    def label(self) -> str:
        arg = self.argument if self.argument is not None else "all"
        return f"{self.function.lower()}_{arg}"


@dataclass(frozen=True)
class AggregateViewDefinition:
    """A GROUP BY view over one base table."""

    name: str
    base_table: str
    group_by: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]
    predicate: str | None = None

    def __post_init__(self) -> None:
        if not self.group_by:
            raise SelfMaintenanceError(
                f"aggregate view {self.name!r} needs at least one grouping column"
            )
        if not self.aggregates:
            raise SelfMaintenanceError(
                f"aggregate view {self.name!r} needs at least one aggregate"
            )

    @cached_property
    def _predicate(self) -> ast.Expression | None:
        """The predicate text parsed: once per (frozen) definition."""
        return parse_expression(self.predicate) if self.predicate else None

    def predicate_ast(self) -> ast.Expression | None:
        return self._predicate


class MaterializedAggregateView:
    """Stored group rows, incrementally maintained from deltas.

    Storage layout: the grouping columns, then ``group_count`` (live rows
    in the group — the existence counter), then per aggregate a pair of
    internal columns holding its running state.
    """

    def __init__(
        self,
        warehouse_db: Database,
        definition: AggregateViewDefinition,
        base_schema: TableSchema,
    ) -> None:
        if definition.base_table != base_schema.name:
            raise WarehouseError(
                f"aggregate view {definition.name!r} is over "
                f"{definition.base_table!r}, got schema of {base_schema.name!r}"
            )
        self.definition = definition
        self.base_schema = base_schema
        self._base_columns = base_schema.column_names
        self._qualifies = compile_predicate(
            definition.predicate_ast(), RowBinding(self._base_columns)
        )
        for name in definition.group_by:
            base_schema.column(name)  # validates
        for spec in definition.aggregates:
            if spec.argument is not None:
                column = base_schema.column(spec.argument)
                if column.datatype.name not in ("INTEGER", "FLOAT", "TIMESTAMP"):
                    raise SelfMaintenanceError(
                        f"{spec.function}({spec.argument}) needs a numeric "
                        f"column, got {column.datatype.name}"
                    )

        columns: list[Column] = [
            base_schema.column(name) for name in definition.group_by
        ]
        columns.append(Column("group_count", INTEGER, nullable=False))
        for spec in definition.aggregates:
            columns.append(Column(f"{spec.label}_sum", FLOAT, nullable=False))
            columns.append(Column(f"{spec.label}_count", INTEGER, nullable=False))
        self.table: Table = warehouse_db.create_table(
            TableSchema(definition.name, columns)
        )
        self._db = warehouse_db
        # In-memory group directory: group key -> RowId of its stored row.
        self._directory: dict[tuple, Any] = {}

    # ------------------------------------------------------------------ reads
    def groups(self) -> dict[tuple, dict[str, Any]]:
        """Current group values: key -> {label: aggregate value, 'count': n}."""
        out: dict[tuple, dict[str, Any]] = {}
        width = len(self.definition.group_by)
        for values in self.table.scan_values():
            key = tuple(values[:width])
            row: dict[str, Any] = {"count": values[width]}
            for position, spec in enumerate(self.definition.aggregates):
                total = values[width + 1 + 2 * position]
                count = values[width + 2 + 2 * position]
                row[spec.label] = self._finalise(spec, total, count)
            out[key] = row
        return out

    @staticmethod
    def _finalise(spec: AggregateSpec, total: float, count: int) -> Any:
        if spec.function == "COUNT":
            return count
        if spec.function == "SUM":
            return total if count else None
        return total / count if count else None  # AVG

    def recompute(self, base_rows: Iterable[Sequence[Any]]) -> dict[tuple, dict]:
        """Pure recomputation oracle (no storage)."""
        groups: dict[tuple, list[Sequence[Any]]] = {}
        for row in base_rows:
            if not self._qualifies(row, NO_SESSION):
                continue
            key = tuple(
                row[self.base_schema.column_index(name)]
                for name in self.definition.group_by
            )
            groups.setdefault(key, []).append(row)
        out = {}
        for key, rows in groups.items():
            entry: dict[str, Any] = {"count": len(rows)}
            for spec in self.definition.aggregates:
                total, count = 0.0, 0
                for row in rows:
                    contribution = self._contribution(spec, row)
                    if contribution is not None:
                        total += contribution
                        count += 1
                    elif spec.function == "COUNT" and spec.argument is None:
                        count += 1
                entry[spec.label] = self._finalise(spec, total, count)
            out[key] = entry
        return out

    # ------------------------------------------------------------ maintenance
    def initialize(self, base_rows: Iterable[Sequence[Any]], txn: Transaction) -> int:
        count = 0
        for row in base_rows:
            self._add_row(tuple(row), txn)
            count += 1
        return count

    def apply_value_delta(
        self, records: Iterable[DeltaRecord], txn: Transaction
    ) -> None:
        for record in records:
            if record.kind is ChangeKind.UPSERT:
                raise WarehouseError(
                    "aggregate views cannot apply UPSERT deltas: the before "
                    "contribution is unknown (timestamp extraction does not "
                    "carry it)"
                )
            self._apply_images(record.before, record.after, txn)

    def apply_operation(self, op: OpDelta, txn: Transaction) -> None:
        """Maintain from an Op-Delta; UPDATE/DELETE require before images."""
        if op.table != self.definition.base_table:
            return
        if op.kind is not OpKind.INSERT and op.before_image is None:
            raise WarehouseError(
                f"aggregate view {self.definition.name!r} needs before images "
                f"for {op.kind.value} operations (hybrid capture)"
            )
        for before, after in derive_row_images(op, self._base_columns):
            self._apply_images(before, after, txn)

    def _apply_images(
        self,
        before: Sequence[Any] | None,
        after: Sequence[Any] | None,
        txn: Transaction,
    ) -> None:
        """Turn one base-row ``(before, after)`` image pair into group updates.

        The one place row images meet the view: the before image's
        contribution leaves its group, the after image's joins its group.
        Value deltas feed it the images they carry, Op-Deltas the images
        :func:`~repro.core.opdelta.derive_row_images` derives.
        """
        if before is not None:
            self._remove_row(before, txn)
        if after is not None:
            self._add_row(after, txn)

    # --------------------------------------------------------------- internals
    def _contribution(self, spec: AggregateSpec, row: Sequence[Any]) -> float | None:
        if spec.argument is None:
            return None
        value = row[self.base_schema.column_index(spec.argument)]
        return float(value) if value is not None else None

    def _group_key(self, row: Sequence[Any]) -> tuple:
        return tuple(
            row[self.base_schema.column_index(name)]
            for name in self.definition.group_by
        )

    def _add_row(self, row: Sequence[Any], txn: Transaction) -> None:
        if not self._qualifies(row, NO_SESSION):
            return
        self._apply_contribution(row, txn, sign=+1)

    def _remove_row(self, row: Sequence[Any], txn: Transaction) -> None:
        if not self._qualifies(row, NO_SESSION):
            return
        self._apply_contribution(row, txn, sign=-1)

    def _rebuild_directory(self) -> None:
        """Re-derive the group directory from storage.

        The directory is a cache; transaction aborts physically restore
        stored rows but can leave it stale, so any inconsistency triggers a
        rebuild rather than an error.
        """
        width = len(self.definition.group_by)
        self._directory = {
            tuple(values[:width]): row_id for row_id, values in self.table.scan()
        }

    def _locate_group(self, key: tuple) -> Any | None:
        row_id = self._directory.get(key)
        if row_id is not None:
            try:
                width = len(self.definition.group_by)
                if tuple(self.table.read(row_id)[:width]) == key:
                    return row_id
            except EngineError:
                pass  # stale entry (post-abort); fall through to rebuild
        self._rebuild_directory()
        return self._directory.get(key)

    def _apply_contribution(self, row: Sequence[Any], txn: Transaction, sign: int) -> None:
        key = self._group_key(row)
        width = len(self.definition.group_by)
        row_id = self._locate_group(key)
        if row_id is None:
            if sign < 0:
                raise WarehouseError(
                    f"aggregate view {self.definition.name!r}: removing a "
                    f"contribution from unknown group {key!r} (state diverged)"
                )
            values: list[Any] = list(key) + [0]
            for _spec in self.definition.aggregates:
                values.extend([0.0, 0])
            row_id = self.table.insert(
                txn, tuple(values), mode=InsertMode.BULK_INTERNAL
            )
            self._directory[key] = row_id
        current = list(self.table.read(row_id))
        new_count = current[width] + sign
        if new_count < 0:
            raise WarehouseError(
                f"aggregate view {self.definition.name!r}: group {key!r} "
                "count went negative (state diverged)"
            )
        if new_count == 0:
            self.table.delete(txn, row_id)
            del self._directory[key]
            return
        current[width] = new_count
        for position, spec in enumerate(self.definition.aggregates):
            sum_slot = width + 1 + 2 * position
            count_slot = width + 2 + 2 * position
            contribution = self._contribution(spec, row)
            if contribution is not None:
                current[sum_slot] += sign * contribution
                current[count_slot] += sign
            elif spec.function == "COUNT" and spec.argument is None:
                current[count_slot] += sign
        assignments: Mapping[str, Any] = dict(
            zip(self.table.schema.column_names, current)
        )
        self.table.update(
            txn, row_id,
            {name: value for name, value in assignments.items()
             if name not in self.definition.group_by},
        )
