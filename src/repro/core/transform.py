"""Transformation rules: source statements → warehouse statements (§4.1).

"The data warehouse schema is typically an aggregation of the source
database schema unlike a recovering database, so appropriate
transformations need to be applied" — and, unlike log shipping, Op-Delta
does not require the destination schema to equal the source schema.

A :class:`TableMapping` declares how one source table appears in the
warehouse: a target table name, a column-rename map, and optionally a
projection (source columns with no mapping are dropped; INSERTs are
rewritten with explicit target column lists so dropped columns simply
disappear).  :class:`StatementTransformer` rewrites whole statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..errors import OpDeltaError
from ..scope import Scope
from ..sql import ast_nodes as ast
from ..sql.templates import reshaped


@dataclass(frozen=True)
class TableMapping:
    """How one source table maps onto the warehouse schema."""

    source_table: str
    target_table: str
    #: source column -> target column.  Source columns absent from the map
    #: are dropped by the transformation (projection).
    column_map: Mapping[str, str] = field(default_factory=dict)
    #: Source column order, required to transform positional INSERTs.
    source_columns: tuple[str, ...] = ()

    def target_column(self, source_column: str) -> str | None:
        if not self.column_map:
            return source_column
        return self.column_map.get(source_column)

    def source_column(self, target_column: str) -> str | None:
        """The source column mapped onto ``target_column`` (None: none is)."""
        if not self.column_map:
            return target_column
        return next(
            (s for s, t in self.column_map.items() if t == target_column), None
        )

    def require_target_column(self, source_column: str) -> str:
        target = self.target_column(source_column)
        if target is None:
            raise OpDeltaError(
                f"column {self.source_table}.{source_column} is dropped by "
                "the warehouse mapping but the statement references it"
            )
        return target


class StatementTransformer:
    """Rewrites captured DML onto the warehouse schema."""

    def __init__(self, mappings: Mapping[str, TableMapping] | None = None) -> None:
        self._mappings = dict(mappings) if mappings else {}
        #: Stands for the mappings as they are: rewritten shapes are filed
        #: under it, and a new mapping replaces it.
        self._scope = Scope()

    def add(self, mapping: TableMapping) -> None:
        self._mappings[mapping.source_table] = mapping
        self._scope = Scope()

    def mapping_for(self, table: str) -> TableMapping:
        return self._mappings.get(table, TableMapping(table, table))

    # --------------------------------------------------------------- statements
    def transform(self, statement: ast.Statement) -> ast.Statement:
        """``statement`` on the warehouse schema.

        The rewrite moves literals without reading them, so a parsed
        statement's shape is rewritten once and its literals bound into the
        result; the statement returned is then a statement of the rewritten
        shape, with that shape's template.
        """
        return reshaped(statement, self._scope, "transform", self._transform)

    def _transform(self, statement: ast.Statement) -> ast.Statement:
        if isinstance(statement, ast.InsertStmt):
            return self._transform_insert(statement)
        if isinstance(statement, ast.UpdateStmt):
            return self._transform_update(statement)
        if isinstance(statement, ast.DeleteStmt):
            return self._transform_delete(statement)
        raise OpDeltaError(
            f"only DML statements are transformed, got {type(statement).__name__}"
        )

    def _transform_insert(self, stmt: ast.InsertStmt) -> ast.InsertStmt:
        mapping = self.mapping_for(stmt.table)
        if stmt.select is not None:
            raise OpDeltaError(
                "INSERT..SELECT Op-Deltas cannot be transformed: the SELECT "
                "reads source state the warehouse does not have"
            )
        source_columns = stmt.columns
        if source_columns is None:
            if mapping.column_map and not mapping.source_columns:
                raise OpDeltaError(
                    f"mapping for {stmt.table!r} projects columns but has no "
                    "source column order; cannot transform a positional INSERT"
                )
            source_columns = mapping.source_columns or None
        if source_columns is None:
            # Pure rename: keep the positional form.
            return ast.InsertStmt(mapping.target_table, None, rows=stmt.rows)
        kept_positions = []
        target_columns = []
        for position, name in enumerate(source_columns):
            target = mapping.target_column(name)
            if target is not None:
                kept_positions.append(position)
                target_columns.append(target)
        new_rows = []
        for row in stmt.rows:
            if len(row) != len(source_columns):
                raise OpDeltaError(
                    f"INSERT row has {len(row)} values for "
                    f"{len(source_columns)} columns"
                )
            new_rows.append(tuple(row[position] for position in kept_positions))
        return ast.InsertStmt(
            mapping.target_table, tuple(target_columns), rows=tuple(new_rows)
        )

    def _transform_update(self, stmt: ast.UpdateStmt) -> ast.UpdateStmt:
        mapping = self.mapping_for(stmt.table)
        # An assignment to a dropped column vanishes, whatever it read.
        assignments = tuple(
            ast.Assignment(target, assignment.expr)
            for assignment in stmt.assignments
            if (target := mapping.target_column(assignment.column)) is not None
        )
        if not assignments:
            raise OpDeltaError(
                f"UPDATE on {stmt.table!r} only assigns columns the warehouse "
                "drops; nothing to apply"
            )
        return ast.map_expressions(
            ast.UpdateStmt(mapping.target_table, assignments, stmt.where),
            _onto_target(mapping),
        )

    def _transform_delete(self, stmt: ast.DeleteStmt) -> ast.DeleteStmt:
        mapping = self.mapping_for(stmt.table)
        return ast.map_expressions(
            ast.DeleteStmt(mapping.target_table, stmt.where), _onto_target(mapping)
        )


def _onto_target(mapping: TableMapping) -> Callable[[ast.Expression], ast.Expression]:
    """The expression rewrite of ``mapping``: every column reference becomes
    a reference to its target column; the rest of the tree stands."""

    def onto(node: ast.Expression) -> ast.Expression:
        if isinstance(node, ast.ColumnRef):
            return ast.ColumnRef(mapping.require_target_column(node.name))
        if isinstance(node, ast.FuncCall) and node.is_volatile:
            # Its value is the source session's: the warehouse's clock or
            # random stream must never be asked for it.
            raise OpDeltaError(
                f"volatile {node.function}() in a statement on "
                f"{mapping.source_table!r} reached the transformer: pin it or "
                "fall back to the before image first"
            )
        return node

    return lambda expr: ast.rewrite(expr, onto)
