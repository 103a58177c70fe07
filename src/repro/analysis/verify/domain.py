"""Small-scope value domains and scenario enumeration.

The verifier does not reason symbolically over unbounded databases; it
enumerates *abstract micro-databases* over a finite value domain derived
from the view definition itself — the small-scope hypothesis (Jackson):
delta-rule bugs that exist at all show up on databases of a couple of
rows drawn from the predicate's boundary values, NULLs, duplicate group
keys and fresh keys.

Per column the domain is:

* every literal the view predicate compares the column against, plus a
  neighbouring value on each side for ordered comparisons (so both
  outcomes of every boundary are populated);
* for grouping columns and aggregate arguments, two distinct values (so
  duplicate keys and cross-group moves exist in scope);
* ``NULL`` whenever the column is nullable (NULL groups, NULL aggregate
  inputs, NULL predicate outcomes);
* a pinned default for every other column.

Row templates vary one active column at a time from a base row
(one-hot), micro-databases are the empty database, every single-template
database and boundary pairs (including a duplicated template, so groups
with count 2 exist), and the operation grid per kind covers full and
partial inserts, constant and self-referential (``c = c + 1``)
assignments, and WHERE shapes over every boundary (equality, the
``IS NULL`` branch, key-targeted, and unguarded).

Everything here is deterministic: same definition + schema + scope in,
byte-identical scenario list out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from ...engine.schema import TableSchema
from ...plain import Record
from ...sql import ast_nodes as ast
from ...sql.ast_nodes import sql_literal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.selfmaint import ViewDefinition
    from ...warehouse.aggregates import AggregateViewDefinition


@dataclass(frozen=True)
class ScopeConfig(Record):
    """Bounds of the small scope; part of the certificate fingerprint."""

    #: Rows per micro-database (0..max_rows).
    max_rows: int = 2
    #: Micro-databases enumerated per view (excess dropped, recorded).
    max_databases: int = 14
    #: Operations per DML kind (excess dropped, recorded).
    max_ops_per_kind: int = 10
    #: Clean scenarios per kind that also get the redelivery (idempotence)
    #: probe.  The default exceeds the scenario count at the default
    #: scope, so effectively every clean scenario is probed.
    redelivery_probes: int = 150

    def signature(self) -> tuple[int, int, int, int]:
        return (
            self.max_rows,
            self.max_databases,
            self.max_ops_per_kind,
            self.redelivery_probes,
        )


@dataclass(frozen=True)
class MicroOp:
    """One operation of the grid: SQL text plus its kind."""

    sql: str
    kind: str  # OpKind value


@dataclass
class Scope:
    """The enumerated small scope for one view: databases and ops."""

    databases: tuple[tuple[tuple[Any, ...], ...], ...]
    ops_by_kind: dict[str, tuple[MicroOp, ...]]
    dim_rows: tuple[tuple[Any, ...], ...] = ()
    #: Enumeration that was cut by the scope caps, for honest reporting.
    truncated: dict[str, int] = field(default_factory=dict)

#: Fresh key values for inserted rows — outside the seeded key range.
_INSERT_KEY_BASE = 90

#: Most boundary literals a column's domain keeps (before the NULL).
_DOMAIN_CAP = 3

_STRING_DEFAULT = "aa"
_STRING_OTHER = "zz"


def _column_defaults(column) -> Any:
    """The pinned value an inactive column takes in every row."""
    name = column.datatype.name
    if name == "INTEGER":
        return 0
    if name == "FLOAT":
        return 0.0
    if name == "TIMESTAMP":
        return None if column.nullable else 0.0
    return _STRING_DEFAULT  # CHAR


def _neighbours(value: Any) -> list[Any]:
    if isinstance(value, bool):  # pragma: no cover - no boolean columns
        return [value]
    if isinstance(value, int):
        return [value - 1, value, value + 1]
    if isinstance(value, float):
        return [value - 0.5, value, value + 0.5]
    return [value]


def _boundary_literals(
    predicate: ast.Expression | None,
) -> dict[str, list[Any]]:
    """Column -> literals the predicate compares it against (with
    neighbours for ordered comparisons)."""
    found: dict[str, list[Any]] = {}

    def note(column: str, values: Iterable[Any]) -> None:
        bucket = found.setdefault(column, [])
        for value in values:
            if value not in bucket:
                bucket.append(value)

    def walk(node: ast.Expression) -> None:
        if isinstance(node, ast.BinaryOp):
            pair = _column_literal_pair(node.left, node.right)
            if pair is not None:
                column, value = pair
                if node.op in ("<", "<=", ">", ">="):
                    note(column, _neighbours(value))
                else:
                    note(column, [value])
            walk(node.left)
            walk(node.right)
        elif isinstance(node, ast.UnaryOp):
            walk(node.operand)
        elif isinstance(node, ast.InList):
            if isinstance(node.expr, ast.ColumnRef):
                note(
                    node.expr.name,
                    [
                        item.value
                        for item in node.items
                        if isinstance(item, ast.Literal)
                    ],
                )
        elif isinstance(node, ast.Between):
            if isinstance(node.expr, ast.ColumnRef):
                for bound in (node.low, node.high):
                    if isinstance(bound, ast.Literal):
                        note(node.expr.name, _neighbours(bound.value))
        elif isinstance(node, ast.IsNull):
            pass  # nullability already contributes None to the domain

    if predicate is not None:
        walk(predicate)
    return found


def _column_literal_pair(
    left: ast.Expression, right: ast.Expression
) -> tuple[str, Any] | None:
    if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
        return left.name, right.value
    if isinstance(right, ast.ColumnRef) and isinstance(left, ast.Literal):
        return right.name, left.value
    return None


def _alternative(value: Any, column) -> Any:
    """A value guaranteed distinct from ``value`` for the same column."""
    if isinstance(value, bool):  # pragma: no cover - no boolean columns
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.5
    if isinstance(value, str):
        return _STRING_OTHER if value != _STRING_OTHER else _STRING_DEFAULT
    return _column_defaults(column)


def column_domain(
    schema: TableSchema,
    name: str,
    boundaries: dict[str, list[Any]],
) -> tuple[Any, ...]:
    """The candidate values an active column ranges over (NULL last)."""
    column = schema.column(name)
    values: list[Any] = []
    for value in boundaries.get(name, []):
        if value not in values:
            values.append(value)
    if not values:
        base = _column_defaults(column)
        if base is None:  # nullable timestamp default
            base = 0.0
        values.append(base)
    if len(values) < 2:
        values.append(_alternative(values[0], column))
    values = values[:_DOMAIN_CAP]
    if column.nullable and None not in values:
        values.append(None)
    return tuple(values)


@dataclass(frozen=True)
class ViewShape:
    """The scope-relevant structure of a view, SPJ or aggregate."""

    base_table: str
    key_column: str | None
    #: Columns whose values the enumeration varies.
    active_columns: tuple[str, ...]
    #: Boundary literals extracted from the view predicate.
    boundaries: dict[str, list[Any]]
    #: Join left column (SPJ join views) or None.
    join_left: str | None = None
    dim_schema: TableSchema | None = None
    dim_key: str | None = None


def spj_shape(
    definition: "ViewDefinition",
    schema: TableSchema,
    dim_schema: TableSchema | None = None,
) -> ViewShape:
    boundaries = _boundary_literals(definition.predicate_ast())
    active: list[str] = []

    def activate(name: str) -> None:
        if schema.has_column(name) and name != schema.primary_key:
            if name not in active:
                active.append(name)

    for name in sorted(boundaries):
        activate(name)
    # One projected non-predicate column (visible updates) and one hidden
    # column (ops over columns the view cannot see), when they exist.
    for name in definition.columns:
        if name not in boundaries and name != definition.key_column:
            activate(name)
            break
    for name in schema.column_names:
        if name not in definition.columns and name not in boundaries:
            activate(name)
            break
    join_left = None
    dim_key = None
    if definition.join is not None:
        join_left = definition.join.left_column
        dim_key = definition.join.right_column
        activate(join_left)
    return ViewShape(
        base_table=definition.base_table,
        key_column=definition.key_column or schema.primary_key,
        active_columns=tuple(active),
        boundaries=boundaries,
        join_left=join_left,
        dim_schema=dim_schema,
        dim_key=dim_key,
    )


def aggregate_shape(
    definition: "AggregateViewDefinition", schema: TableSchema
) -> ViewShape:
    boundaries = _boundary_literals(definition.predicate_ast())
    active: list[str] = []
    for name in (
        *definition.group_by,
        *(
            spec.argument
            for spec in definition.aggregates
            if spec.argument is not None
        ),
        *sorted(boundaries),
    ):
        if name != schema.primary_key and name not in active:
            active.append(name)
    return ViewShape(
        base_table=definition.base_table,
        key_column=schema.primary_key,
        active_columns=tuple(active),
        boundaries=boundaries,
    )


def enumerate_scope(
    shape: ViewShape, schema: TableSchema, config: ScopeConfig
) -> Scope:
    """Enumerate the micro-databases and operation grid for one view."""
    domains = {
        name: column_domain(schema, name, shape.boundaries)
        for name in shape.active_columns
    }
    key = shape.key_column
    truncated: dict[str, int] = {}

    # ---- row templates: base row + one-hot variants ---------------------
    def base_value(name: str) -> Any:
        if name in domains:
            return domains[name][0]
        return _column_defaults(schema.column(name))

    def make_row(key_value: int, overrides: dict[str, Any]) -> tuple:
        values = []
        for column in schema:
            if column.name == key:
                values.append(key_value)
            elif column.name in overrides:
                values.append(overrides[column.name])
            else:
                values.append(base_value(column.name))
        return tuple(values)

    templates: list[dict[str, Any]] = [{}]
    for name in shape.active_columns:
        for value in domains[name][1:]:
            if value is None and not schema.column(name).nullable:
                continue
            templates.append({name: value})

    # ---- micro-databases ------------------------------------------------
    databases: list[tuple[tuple[Any, ...], ...]] = [()]
    for template in templates:
        databases.append((make_row(1, template),))
    for template in templates[1:]:
        databases.append((make_row(1, {}), make_row(2, template)))
    # Duplicate contributions: two rows sharing every active value.
    databases.append((make_row(1, {}), make_row(2, {})))
    if len(databases) > config.max_databases:
        truncated["databases"] = len(databases) - config.max_databases
        databases = databases[: config.max_databases]

    # ---- operation grid -------------------------------------------------
    wheres: list[str | None] = [None]
    if key is not None:
        wheres.append(f"{key} = 1")
    for name in shape.active_columns:
        for value in domains[name]:
            if value is None:
                wheres.append(f"{name} IS NULL")
            else:
                wheres.append(f"{name} = {sql_literal(value)}")

    inserts: list[MicroOp] = []
    not_null = [c.name for c in schema if not c.nullable]
    for index, template in enumerate(templates):
        row = make_row(_INSERT_KEY_BASE + index, template)
        columns = ", ".join(schema.column_names)
        values = ", ".join(sql_literal(v) for v in row)
        inserts.append(
            MicroOp(
                f"INSERT INTO {schema.name} ({columns}) VALUES ({values})",
                "INSERT",
            )
        )
    # One partial insert: only the NOT NULL columns listed, the rest of
    # the row defaulting to NULL at both the base and the view.
    partial = make_row(_INSERT_KEY_BASE + len(templates), {})
    columns = ", ".join(not_null)
    values = ", ".join(
        sql_literal(partial[schema.column_index(name)]) for name in not_null
    )
    inserts.append(
        MicroOp(
            f"INSERT INTO {schema.name} ({columns}) VALUES ({values})",
            "INSERT",
        )
    )

    assignments: list[str] = []
    for name in shape.active_columns:
        column = schema.column(name)
        for value in domains[name]:
            if value is None and not column.nullable:
                continue
            assignments.append(f"{name} = {sql_literal(value)}")
        if column.datatype.name in ("INTEGER", "FLOAT"):
            assignments.append(f"{name} = {name} + 1")
    updates = [
        MicroOp(
            f"UPDATE {schema.name} SET {assignment}"
            + (f" WHERE {where}" if where is not None else ""),
            "UPDATE",
        )
        for assignment in assignments
        for where in (None, *([wheres[1]] if len(wheres) > 1 else []))
    ]
    # Boundary-targeted updates: first assignment against every WHERE.
    if assignments:
        updates.extend(
            MicroOp(
                f"UPDATE {schema.name} SET {assignments[0]} WHERE {where}",
                "UPDATE",
            )
            for where in wheres[2:]
        )
    deletes = [
        MicroOp(
            f"DELETE FROM {schema.name}"
            + (f" WHERE {where}" if where is not None else ""),
            "DELETE",
        )
        for where in wheres
    ]

    ops_by_kind: dict[str, tuple[MicroOp, ...]] = {}
    for kind, ops in (
        ("INSERT", inserts),
        ("UPDATE", updates),
        ("DELETE", deletes),
    ):
        deduped: list[MicroOp] = []
        seen: set[str] = set()
        for op in ops:
            if op.sql not in seen:
                seen.add(op.sql)
                deduped.append(op)
        if len(deduped) > config.max_ops_per_kind:
            truncated[f"ops_{kind.lower()}"] = (
                len(deduped) - config.max_ops_per_kind
            )
            deduped = deduped[: config.max_ops_per_kind]
        ops_by_kind[kind] = tuple(deduped)

    # ---- dimension rows for join views ----------------------------------
    # Only the first in-domain join-key value gets a dimension row, so the
    # scope covers both the matched and the dangling side of the join.
    dim_rows: tuple[tuple[Any, ...], ...] = ()
    if shape.join_left is not None and shape.dim_schema is not None:
        assert shape.dim_key is not None
        left_domain = domains.get(shape.join_left, (1,))
        matched = [v for v in left_domain if v is not None][:1]
        dim_rows = tuple(
            tuple(
                key_value if column.name == shape.dim_key
                else _column_defaults(column)
                for column in shape.dim_schema
            )
            for key_value in matched
        )

    return Scope(
        databases=tuple(databases),
        ops_by_kind=ops_by_kind,
        dim_rows=dim_rows,
        truncated=truncated,
    )
