"""Schema-aware semantic analyzer / type checker for the SQL layer.

Runs at Op-Delta capture time (see ``OpDeltaCapture(checker=...)``): the
paper places capture *above* the DBMS, so the captured statement can be
validated against the source schema before it is recorded or shipped —
a malformed statement is rejected at the wrapper, not at warehouse apply.

The checker performs, per statement:

* **name resolution** — tables, aliases and columns against a
  :class:`SchemaCatalog` of :class:`~repro.engine.schema.TableSchema`;
* **type inference** — over the full expression grammar including
  ``FuncCall`` nodes, mirroring the evaluator's runtime behaviour
  (comparisons need num/num or str/str, arithmetic needs numbers, WHERE
  needs a boolean) so that every statement it accepts cannot fail a type
  check at execution;
* **constant folding** — deterministic all-literal subtrees are reduced
  ahead of time; folding that provably fails at runtime (division by
  zero) becomes a diagnostic instead of an apply-time crash;
* **fit checking** — assigned/inserted values against column types and
  nullability, with implicit-coercion warnings for numeric↔TIMESTAMP
  crossings the engine accepts silently.

One unresolved name yields exactly one diagnostic: the affected
subexpressions type as UNKNOWN, which unifies with everything, so a
misspelled table does not cascade into a wall of secondary errors — the
references that may be its columns type as UNKNOWN, and those qualified by
a known table are still checked.  A diagnostic's severity is its code's
(:data:`~repro.semantics.diagnostics.WARNINGS`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from ..engine.schema import Column, TableSchema
from ..engine.types import DataType
from ..errors import SchemaError, SemanticError, SqlAnalysisError
from ..scope import Scope
from ..sql import ast_nodes as ast
from ..sql.expressions import Slot, evaluate, no_slot
from ..sql.parser import parse
from ..sql.templates import StatementTemplate
from . import diagnostics as diag
from . import sqltypes
from .diagnostics import Diagnostic, Severity
from .sqltypes import Fit, SqlType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.database import Database

#: Scalar function arity: exact count, or (minimum, None) for variadic.
_FUNCTION_ARITY: Mapping[str, int | tuple[int, None]] = {
    "NOW": 0,
    "CURRENT_TIMESTAMP": 0,
    "RANDOM": 0,
    "SESSION_USER": 0,
    "CURRENT_USER": 0,
    "ABS": 1,
    "ROUND": 1,
    "UPPER": 1,
    "LOWER": 1,
    "LENGTH": 1,
    "COALESCE": (1, None),
}


class SchemaCatalog:
    """The set of table schemas the checker resolves names against."""

    def __init__(self, schemas: Iterable[TableSchema] = ()) -> None:
        self._schemas: dict[str, TableSchema] = {s.name: s for s in schemas}
        #: Stands for the schemas as they are: a checker files what it
        #: concluded about a statement shape under it, and ``add`` replaces it.
        self.version = Scope()

    @classmethod
    def from_database(cls, database: "Database") -> "SchemaCatalog":
        return cls(table.schema for table in database.tables())

    def add(self, schema: TableSchema) -> None:
        self._schemas[schema.name] = schema
        self.version = Scope()

    def schema(self, name: str) -> TableSchema | None:
        return self._schemas.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._schemas)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking one statement: the folded tree + diagnostics."""

    statement: ast.Statement
    diagnostics: tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    def raise_if_errors(self, sql_text: str | None = None) -> None:
        """Raise :class:`SemanticError` when any ERROR diagnostic is present."""
        errors = self.errors
        if not errors:
            return
        rendered = "; ".join(d.render() for d in errors)
        subject = f" in {sql_text!r}" if sql_text else ""
        raise SemanticError(
            f"semantic check failed{subject}: {rendered}", diagnostics=errors
        )


class _Scope:
    """Visible columns during one statement's resolution.

    ``_unknown`` holds the names and aliases of tables the catalog lacks.  A
    reference qualified by one of them, or any unqualified reference while
    there is one (it may be that table's), resolves quietly to UNKNOWN; a
    reference qualified by a known table is checked as ever.
    """

    def __init__(self) -> None:
        self._unknown: set[str] = set()
        self._by_name: dict[str, list[tuple[str, Column]]] = {}
        self._qualified: dict[str, dict[str, Column]] = {}

    def add_table(
        self, name: str, schema: TableSchema | None, alias: str | None = None
    ) -> None:
        """Make table ``name``'s columns visible under its name and alias;
        ``schema`` is None when the catalog lacks the table."""
        qualifiers = {name} if alias is None else {name, alias}
        if schema is None:
            self._unknown |= qualifiers
            return
        for qualifier in qualifiers:
            bucket = self._qualified.setdefault(qualifier, {})
            for column in schema.columns:
                bucket[column.name] = column
        for column in schema.columns:
            self._by_name.setdefault(column.name, []).append((schema.name, column))

    def resolve(self, ref: ast.ColumnRef) -> tuple[Column | None, str | None]:
        """Resolve a reference: (column, problem) where problem is a code;
        neither when the reference may name an unknown table's column."""
        if ref.table is not None:
            if ref.table in self._unknown:
                return None, None
            bucket = self._qualified.get(ref.table)
            if bucket is None:
                return None, diag.UNKNOWN_COLUMN
            column = bucket.get(ref.name)
            return (column, None) if column else (None, diag.UNKNOWN_COLUMN)
        if self._unknown:
            return None, None
        candidates = self._by_name.get(ref.name, [])
        if not candidates:
            return None, diag.UNKNOWN_COLUMN
        if len({id(c) for _t, c in candidates}) > 1:
            return None, diag.AMBIGUOUS_COLUMN
        return candidates[0][1], None


@dataclass(frozen=True)
class _Fit:
    """A verdict entry only a literal's *value* settles: does it fit?

    ``then`` is the diagnostic (an implicit-coercion warning) that follows
    when it does.
    """

    slot: int
    column: Column
    position: int | None
    then: Diagnostic | None = None


class SemanticChecker:
    """Checks parsed statements against a :class:`SchemaCatalog`.

    What the checker concludes about a statement is a fact of its *shape*
    and of the catalog — names, types, arity — except for two things a
    literal's value decides: whether a constant fits its column (CHAR
    overflow, a fractional number into INTEGER ...) and what a constant
    subtree folds to.  So a parsed statement's verdict is worked out once per
    shape and catalog version, with every fit test left open
    (:class:`_Fit`), and replayed for each statement of the shape with its
    own literals and source positions; a shape with anything to fold is
    checked in full every time.
    """

    def __init__(self, catalog: SchemaCatalog) -> None:
        self.catalog = catalog
        #: While a shape's verdict is being worked out: which literal a
        #: value stands for, and whether any folding was attempted.
        self._slot: Slot = no_slot
        self._folded = False

    # ------------------------------------------------------------- entrypoints
    def check_sql(self, sql: str) -> CheckResult:
        """Parse and check one statement (syntax errors propagate)."""
        return self.check_statement(parse(sql))

    def check_statement(self, statement: ast.Statement) -> CheckResult:
        binding = statement.binding
        if binding is None:
            return self._check(statement)
        template = binding.template
        verdict = template.fact(
            self.catalog.version, "check", lambda: self._shape_verdict(template)
        )
        if verdict is None:
            return self._check(statement)
        diags: list[Diagnostic] = []
        for entry in verdict:
            found: Diagnostic | None
            if not isinstance(entry, _Fit):
                found = entry
            else:
                try:
                    entry.column.datatype.validate(binding.values[entry.slot])
                    found = entry.then
                except SchemaError as exc:
                    found = _diagnostic(diag.TYPE_MISMATCH, str(exc), entry.position)
            if found is not None:
                position = binding.position(found.position)
                if position != found.position:
                    found = dataclasses.replace(found, position=position)
                diags.append(found)
        return CheckResult(statement, tuple(diags))

    def _shape_verdict(
        self, template: StatementTemplate
    ) -> tuple[Diagnostic | _Fit, ...] | None:
        """The diagnostics of every statement of a shape, fit tests open;
        ``None`` when the shape has constants to fold."""
        self._slot, self._folded = template.slot, False
        try:
            verdict = self._check(template.statement).diagnostics
            return None if self._folded else verdict
        finally:
            self._slot = no_slot

    def _check(self, statement: ast.Statement) -> CheckResult:
        diags: list[Diagnostic] = []
        if isinstance(statement, ast.InsertStmt):
            statement = self._check_insert(statement, diags)
        elif isinstance(statement, ast.UpdateStmt):
            statement = self._check_update(statement, diags)
        elif isinstance(statement, ast.DeleteStmt):
            statement = self._check_delete(statement, diags)
        elif isinstance(statement, ast.SelectStmt):
            statement = self._check_select(statement, diags)
        # DDL and transaction-control statements pass through unchecked: the
        # catalog layer validates them and they are never Op-Delta payload.
        return CheckResult(statement, tuple(diags))

    # -------------------------------------------------------------- statements
    def _lookup_table(
        self, name: str, pos: int | None, diags: list[Diagnostic]
    ) -> TableSchema | None:
        schema = self.catalog.schema(name)
        if schema is None:
            diags.append(_diagnostic(
                diag.UNKNOWN_TABLE, f"unknown table {name!r}", pos
            ))
        return schema

    def _check_insert(
        self, stmt: ast.InsertStmt, diags: list[Diagnostic]
    ) -> ast.InsertStmt:
        schema = self._lookup_table(stmt.table, stmt.table_pos, diags)
        target_columns: list[Column] | None = None
        if schema is not None:
            if stmt.columns is not None:
                target_columns = []
                seen: set[str] = set()
                for name in stmt.columns:
                    if name in seen:
                        diags.append(_diagnostic(
                            diag.ARITY_MISMATCH,
                            f"column {name!r} listed twice in INSERT",
                            stmt.table_pos,
                        ))
                    seen.add(name)
                    if schema.has_column(name):
                        target_columns.append(schema.column(name))
                    else:
                        diags.append(_diagnostic(
                            diag.UNKNOWN_COLUMN,
                            f"table {stmt.table!r} has no column {name!r}",
                            stmt.table_pos,
                        ))
                        target_columns.append(Column(name, _UNKNOWN_DATATYPE))
                # Omitted NOT NULL columns become NULL on apply: reject now.
                for column in schema.columns:
                    if not column.nullable and column.name not in seen:
                        diags.append(_diagnostic(
                            diag.NOT_NULL_VIOLATION,
                            f"INSERT omits NOT NULL column "
                            f"{stmt.table}.{column.name}",
                            stmt.table_pos,
                        ))
            else:
                target_columns = list(schema.columns)

        if stmt.select is not None:
            select = self._check_select(stmt.select, diags)
            width = _select_width(select, self.catalog)
            if (
                target_columns is not None
                and width is not None
                and width != len(target_columns)
            ):
                diags.append(_diagnostic(
                    diag.ARITY_MISMATCH,
                    f"INSERT target has {len(target_columns)} columns but "
                    f"the SELECT produces {width}",
                    stmt.table_pos,
                ))
            return dataclasses.replace(stmt, select=select)

        # VALUES rows: fold, then fit each value against its target column.
        scope = _Scope()  # VALUES cannot reference columns
        folded_rows: list[tuple[ast.Expression, ...]] = []
        for row in stmt.rows:
            folded = tuple(self._fold(expr, diags) for expr in row)
            folded_rows.append(folded)
            if target_columns is not None and len(folded) != len(target_columns):
                diags.append(_diagnostic(
                    diag.ARITY_MISMATCH,
                    f"INSERT row has {len(folded)} values but "
                    f"{len(target_columns)} columns are expected",
                    ast.node_pos(folded[0]) if folded else stmt.table_pos,
                ))
                continue
            for position, expr in enumerate(folded):
                expr_type = self._infer(expr, scope, diags)
                if target_columns is not None:
                    self._check_fit(
                        expr, expr_type, target_columns[position], stmt.table, diags
                    )
        return dataclasses.replace(stmt, rows=tuple(folded_rows))

    def _check_update(
        self, stmt: ast.UpdateStmt, diags: list[Diagnostic]
    ) -> ast.UpdateStmt:
        schema = self._lookup_table(stmt.table, stmt.table_pos, diags)
        scope = _Scope()
        scope.add_table(stmt.table, schema)
        assigned: set[str] = set()
        folded_assignments: list[ast.Assignment] = []
        for assignment in stmt.assignments:
            if assignment.column in assigned:
                diags.append(_diagnostic(
                    diag.ARITY_MISMATCH,
                    f"column {assignment.column!r} assigned twice",
                    assignment.pos,
                ))
            assigned.add(assignment.column)
            column: Column | None = None
            if schema is not None:
                if schema.has_column(assignment.column):
                    column = schema.column(assignment.column)
                else:
                    diags.append(_diagnostic(
                        diag.UNKNOWN_COLUMN,
                        f"table {stmt.table!r} has no column "
                        f"{assignment.column!r}",
                        assignment.pos,
                    ))
            expr = self._fold(assignment.expr, diags)
            folded_assignments.append(dataclasses.replace(assignment, expr=expr))
            expr_type = self._infer(expr, scope, diags)
            if column is not None:
                self._check_fit(expr, expr_type, column, stmt.table, diags)
        where = self._check_where(stmt.where, scope, diags)
        return dataclasses.replace(
            stmt, assignments=tuple(folded_assignments), where=where
        )

    def _check_delete(
        self, stmt: ast.DeleteStmt, diags: list[Diagnostic]
    ) -> ast.DeleteStmt:
        scope = _Scope()
        scope.add_table(
            stmt.table, self._lookup_table(stmt.table, stmt.table_pos, diags)
        )
        where = self._check_where(stmt.where, scope, diags)
        return dataclasses.replace(stmt, where=where)

    def _check_select(
        self, stmt: ast.SelectStmt, diags: list[Diagnostic]
    ) -> ast.SelectStmt:
        scope = _Scope()
        if stmt.table is not None:
            schema = self._lookup_table(stmt.table, stmt.table_pos, diags)
            scope.add_table(stmt.table, schema, stmt.alias)
        for join in stmt.joins:
            schema = self._lookup_table(join.table, None, diags)
            scope.add_table(join.table, schema, join.alias)
        for join in stmt.joins:
            left = self._infer(join.left, scope, diags)
            right = self._infer(join.right, scope, diags)
            if not sqltypes.comparable(left, right):
                diags.append(_diagnostic(
                    diag.TYPE_MISMATCH,
                    f"join condition compares {left.value} with {right.value}",
                    join.left.pos,
                ))
        items: list[ast.SelectItem] = []
        for item in stmt.items:
            if isinstance(item.expr, ast.Star):
                items.append(item)
                continue
            expr = self._fold(item.expr, diags)
            self._infer(expr, scope, diags, aggregates_ok=True)
            items.append(dataclasses.replace(item, expr=expr))
        for ref in stmt.group_by:
            self._infer(ref, scope, diags)
        where = self._check_where(stmt.where, scope, diags)
        for order in stmt.order_by:
            self._infer(order.expr, scope, diags, aggregates_ok=True)
        return dataclasses.replace(stmt, items=tuple(items), where=where)

    # ------------------------------------------------------------- expressions
    def _check_where(
        self,
        where: ast.Expression | None,
        scope: _Scope,
        diags: list[Diagnostic],
    ) -> ast.Expression | None:
        if where is None:
            return None
        where = self._fold(where, diags)
        result = self._infer(where, scope, diags)
        if result not in (SqlType.BOOLEAN, SqlType.NULL, SqlType.UNKNOWN):
            diags.append(_diagnostic(
                diag.NON_BOOLEAN_PREDICATE,
                f"WHERE needs a boolean condition, got {result.value}",
                ast.node_pos(where),
            ))
        return where

    def _check_fit(
        self,
        expr: ast.Expression,
        expr_type: SqlType,
        column: Column,
        table: str,
        diags: list[Diagnostic],
    ) -> None:
        """Will storing ``expr`` into ``column`` succeed at apply time?"""
        if column.datatype is _UNKNOWN_DATATYPE:
            return
        pos = ast.node_pos(expr)
        slot = None
        if isinstance(expr, ast.Literal):
            # Constants (including folded subtrees) get the engine's exact
            # runtime validation: CHAR overflow, float-into-INTEGER, NULL
            # into NOT NULL — whatever validate_values would reject.
            if expr.value is None:
                if not column.nullable:
                    diags.append(_diagnostic(
                        diag.NOT_NULL_VIOLATION,
                        f"column {table}.{column.name} is NOT NULL",
                        pos,
                    ))
                return
            slot = self._slot(expr.value)
            if slot is None:
                try:
                    column.datatype.validate(expr.value)
                except SchemaError as exc:
                    diags.append(
                        _diagnostic(diag.TYPE_MISMATCH, str(exc), pos)
                    )
                    return
        # What the value's *type* settles; for a literal of a shape, what
        # follows its own fit test when the verdict is replayed.
        typed = len(diags)
        column_type = sqltypes.from_datatype(column.datatype)
        fit = sqltypes.assignment_fit(expr_type, column_type)
        if fit is Fit.ERROR and not isinstance(expr, ast.Literal):
            diags.append(_diagnostic(
                diag.TYPE_MISMATCH,
                f"cannot store a {expr_type.value} value in "
                f"{table}.{column.name} ({column.datatype.name})",
                pos,
            ))
        elif fit is Fit.COERCE:
            diags.append(_diagnostic(
                diag.IMPLICIT_COERCION,
                f"implicit {expr_type.value} → {column_type.value} coercion "
                f"storing into {table}.{column.name}",
                pos,
            ))
        if slot is not None:
            diags[typed:] = [_Fit(slot, column, pos, *diags[typed:])]  # type: ignore[list-item]

    def _infer(
        self,
        expr: ast.Expression,
        scope: _Scope,
        diags: list[Diagnostic],
        aggregates_ok: bool = False,
    ) -> SqlType:
        if isinstance(expr, ast.Literal):
            return sqltypes.from_value(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self._infer_column(expr, scope, diags)
        if isinstance(expr, ast.BinaryOp):
            return self._infer_binary(expr, scope, diags)
        if isinstance(expr, ast.UnaryOp):
            operand = self._infer(expr.operand, scope, diags)
            if expr.op == "NOT":
                if operand not in (SqlType.BOOLEAN, SqlType.NULL, SqlType.UNKNOWN):
                    diags.append(_diagnostic(
                        diag.NON_BOOLEAN_PREDICATE,
                        f"NOT needs a boolean operand, got {operand.value}",
                        ast.node_pos(expr),
                    ))
                return SqlType.BOOLEAN
            if not operand.is_numeric and not operand.lenient:
                diags.append(_diagnostic(
                    diag.TYPE_MISMATCH,
                    f"unary minus needs a number, got {operand.value}",
                    ast.node_pos(expr),
                ))
                return SqlType.UNKNOWN
            return operand
        if isinstance(expr, ast.InList):
            value = self._infer(expr.expr, scope, diags)
            for item in expr.items:
                item_type = self._infer(item, scope, diags)
                if not sqltypes.comparable(value, item_type):
                    diags.append(_diagnostic(
                        diag.TYPE_MISMATCH,
                        f"IN list mixes {value.value} with {item_type.value}",
                        ast.node_pos(item),
                    ))
            return SqlType.BOOLEAN
        if isinstance(expr, ast.Between):
            value = self._infer(expr.expr, scope, diags)
            for bound in (expr.low, expr.high):
                bound_type = self._infer(bound, scope, diags)
                if not sqltypes.comparable(value, bound_type):
                    diags.append(_diagnostic(
                        diag.TYPE_MISMATCH,
                        f"BETWEEN compares {value.value} with "
                        f"{bound_type.value}",
                        ast.node_pos(bound),
                    ))
            return SqlType.BOOLEAN
        if isinstance(expr, ast.Like):
            value = self._infer(expr.expr, scope, diags)
            if value is not SqlType.STRING and not value.lenient:
                diags.append(_diagnostic(
                    diag.TYPE_MISMATCH,
                    f"LIKE needs a string, got {value.value}",
                    ast.node_pos(expr),
                ))
            return SqlType.BOOLEAN
        if isinstance(expr, ast.IsNull):
            self._infer(expr.expr, scope, diags)
            return SqlType.BOOLEAN
        if isinstance(expr, ast.FuncCall):
            return self._infer_func(expr, scope, diags)
        if isinstance(expr, ast.Aggregate):
            return self._infer_aggregate(expr, scope, diags, aggregates_ok)
        if isinstance(expr, ast.Star):
            diags.append(_diagnostic(
                diag.ARITY_MISMATCH, "'*' is only valid directly in a select list", None
            ))
        return SqlType.UNKNOWN

    def _infer_column(
        self, ref: ast.ColumnRef, scope: _Scope, diags: list[Diagnostic]
    ) -> SqlType:
        column, problem = scope.resolve(ref)
        if column is not None:
            return sqltypes.from_datatype(column.datatype)
        spelled = f"{ref.table}.{ref.name}" if ref.table else ref.name
        if problem == diag.AMBIGUOUS_COLUMN:
            diags.append(_diagnostic(
                problem, f"column {spelled!r} is ambiguous (qualify it)", ref.pos
            ))
        elif problem is not None:
            diags.append(_diagnostic(problem, f"unknown column {spelled!r}", ref.pos))
        return SqlType.UNKNOWN

    def _infer_binary(
        self, expr: ast.BinaryOp, scope: _Scope, diags: list[Diagnostic]
    ) -> SqlType:
        if expr.op in ("AND", "OR"):
            for side in (expr.left, expr.right):
                side_type = self._infer(side, scope, diags)
                if side_type not in (SqlType.BOOLEAN, SqlType.NULL, SqlType.UNKNOWN):
                    diags.append(_diagnostic(
                        diag.NON_BOOLEAN_PREDICATE,
                        f"{expr.op} needs boolean operands, got "
                        f"{side_type.value}",
                        ast.node_pos(side),
                    ))
            return SqlType.BOOLEAN
        left = self._infer(expr.left, scope, diags)
        right = self._infer(expr.right, scope, diags)
        if expr.op in ("=", "<>", "<", "<=", ">", ">="):
            if not sqltypes.comparable(left, right):
                diags.append(_diagnostic(
                    diag.TYPE_MISMATCH,
                    f"cannot compare {left.value} with {right.value} "
                    f"using {expr.op!r}",
                    ast.node_pos(expr),
                ))
            return SqlType.BOOLEAN
        # Arithmetic.
        for side, side_type in ((expr.left, left), (expr.right, right)):
            if not side_type.is_numeric and not side_type.lenient:
                diags.append(_diagnostic(
                    diag.TYPE_MISMATCH,
                    f"arithmetic {expr.op!r} needs numbers, got "
                    f"{side_type.value}",
                    ast.node_pos(side),
                ))
                return SqlType.UNKNOWN
        return sqltypes.arithmetic_result(expr.op, left, right)

    def _infer_func(
        self, expr: ast.FuncCall, scope: _Scope, diags: list[Diagnostic]
    ) -> SqlType:
        arity = _FUNCTION_ARITY.get(expr.function)
        if isinstance(arity, tuple):
            if len(expr.args) < arity[0]:
                diags.append(_diagnostic(
                    diag.ARITY_MISMATCH,
                    f"{expr.function} needs at least {arity[0]} argument(s), "
                    f"got {len(expr.args)}",
                    expr.pos,
                ))
        elif arity is not None and len(expr.args) != arity:
            diags.append(_diagnostic(
                diag.ARITY_MISMATCH,
                f"{expr.function} takes exactly {arity} argument(s), "
                f"got {len(expr.args)}",
                expr.pos,
            ))
        arg_types = [self._infer(arg, scope, diags) for arg in expr.args]
        if expr.function in ast.TIME_FUNCTIONS:
            return SqlType.TIMESTAMP
        if expr.function == "RANDOM":
            return SqlType.FLOAT
        if expr.function in ("SESSION_USER", "CURRENT_USER"):
            return SqlType.STRING
        if expr.function == "COALESCE":
            concrete = [t for t in arg_types if not t.lenient]
            if not concrete:
                return SqlType.NULL
            if all(t is concrete[0] for t in concrete):
                return concrete[0]
            if all(t.is_numeric for t in concrete):
                return SqlType.FLOAT
            return SqlType.UNKNOWN
        first = arg_types[0] if arg_types else SqlType.UNKNOWN
        if expr.function in ("ABS", "ROUND"):
            if not first.is_numeric and not first.lenient:
                diags.append(_diagnostic(
                    diag.TYPE_MISMATCH,
                    f"{expr.function} needs a number, got {first.value}",
                    expr.pos,
                ))
                return SqlType.UNKNOWN
            return SqlType.INTEGER if expr.function == "ROUND" else first
        # UPPER / LOWER / LENGTH.
        if first is not SqlType.STRING and not first.lenient:
            diags.append(_diagnostic(
                diag.TYPE_MISMATCH,
                f"{expr.function} needs a string, got {first.value}",
                expr.pos,
            ))
            return SqlType.UNKNOWN
        return SqlType.INTEGER if expr.function == "LENGTH" else SqlType.STRING

    def _infer_aggregate(
        self,
        expr: ast.Aggregate,
        scope: _Scope,
        diags: list[Diagnostic],
        aggregates_ok: bool,
    ) -> SqlType:
        if not aggregates_ok:
            diags.append(_diagnostic(
                diag.ARITY_MISMATCH,
                f"aggregate {expr.function} is only valid in a select list",
                expr.pos,
            ))
        if expr.argument is None:
            return SqlType.INTEGER  # COUNT(*)
        arg_type = self._infer(expr.argument, scope, diags)
        if expr.function == "COUNT":
            return SqlType.INTEGER
        if expr.function in ("SUM", "AVG"):
            if not arg_type.is_numeric and not arg_type.lenient:
                diags.append(_diagnostic(
                    diag.TYPE_MISMATCH,
                    f"{expr.function} needs a numeric column, got "
                    f"{arg_type.value}",
                    expr.pos,
                ))
            return SqlType.FLOAT
        return arg_type  # MIN/MAX keep their argument's type

    # ---------------------------------------------------------------- folding
    def _fold(
        self, expr: ast.Expression, diags: list[Diagnostic]
    ) -> ast.Expression:
        """Reduce deterministic all-literal subtrees to literals.

        Only value-producing nodes fold (arithmetic, unary minus,
        deterministic scalar functions) — boolean contexts keep their
        structure so rewrites and footprint extraction see predicates, not
        opaque truth values.  Folding that provably fails at runtime
        (division by zero) is diagnosed as SEM009 and left unfolded.
        """
        def fold(node: ast.Expression) -> ast.Expression:
            if _produces_value(node) and all(
                isinstance(child, ast.Literal) for child in ast.children(node)
            ):
                return self._try_fold(node, diags)
            return node

        return ast.rewrite(expr, fold)

    def _try_fold(
        self, expr: ast.Expression, diags: list[Diagnostic]
    ) -> ast.Expression:
        self._folded = True
        try:
            value = evaluate(expr, {})
        except SqlAnalysisError as exc:
            if "division by zero" in str(exc):
                diags.append(_diagnostic(
                    diag.CONSTANT_FAILURE,
                    "constant expression always fails: division by zero",
                    ast.node_pos(expr),
                ))
            # Type errors in constants surface through inference instead.
            return expr
        if value is None or isinstance(value, (int, float, str)):
            if isinstance(value, bool):
                return expr
            return ast.Literal(value, pos=ast.node_pos(expr))
        return expr


def _diagnostic(code: str, message: str, position: int | None) -> Diagnostic:
    """A finding of ``code``, at the severity its code has."""
    severity = Severity.WARNING if code in diag.WARNINGS else Severity.ERROR
    return Diagnostic(code, severity, message, position)


def _produces_value(node: ast.Expression) -> bool:
    """Arithmetic, unary minus or a deterministic scalar call: the nodes a
    literal can stand for (a comparison or a connective keeps its structure)."""
    if isinstance(node, ast.BinaryOp):
        return node.op in ("+", "-", "*", "/")
    if isinstance(node, ast.UnaryOp):
        return node.op == "-"
    return isinstance(node, ast.FuncCall) and (
        node.function in ast.DETERMINISTIC_FUNCTIONS
    )


def _select_width(select: ast.SelectStmt, catalog: SchemaCatalog) -> int | None:
    """Output arity of a SELECT, or None when a ``*`` cannot be sized."""
    width = 0
    for item in select.items:
        if isinstance(item.expr, ast.Star):
            if select.table is None or select.joins:
                return None
            schema = catalog.schema(select.table)
            if schema is None:
                return None
            width += len(schema.columns)
        else:
            width += 1
    return width


class _UnknownDataType(DataType):
    """Placeholder datatype for columns invented by erroneous statements."""

    name = "?"
    width = 0  # never stored
    struct_format = "0s"

    def validate(self, value: object) -> object:
        return value

    def encode(self, value: object) -> bytes:  # pragma: no cover - never stored
        raise SchemaError("unknown column type cannot be encoded")

    def decode(self, data: bytes) -> object:  # pragma: no cover - never stored
        raise SchemaError("unknown column type cannot be decoded")


_UNKNOWN_DATATYPE = _UnknownDataType()
