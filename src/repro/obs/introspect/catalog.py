"""The read-only system catalog: ad-hoc SQL over observability stores.

:class:`SystemCatalog` wires the ``sys.*`` virtual tables into the
existing SQL front end.  A query runs through the same parser, the same
:class:`~repro.semantics.checker.SemanticChecker` (resolving names
against the system-table schemas, so a typo in a telemetry query gets
the same positioned diagnostic as one in application SQL) and the same
executor, which reads the stores where they live: each referenced table
is its adapter's rows, served in place through the read contract of
:mod:`repro.sql.source`.  Nothing is copied into an engine table, so no
value is cut to a column width or re-encoded on the way.

Two invariants the catalog enforces:

* **Read-only.**  Only ``SELECT`` reaches the executor; any DML/DDL
  statement is refused before semantic analysis.
* **Zero observer cost.**  What a query reads carries its own
  :class:`~repro.clock.VirtualClock` and touches no metrics registry or
  tracer, so however expensive a telemetry query is, the observed
  pipeline's virtual time, metrics and traces are untouched.  Adapters
  only read the live stores; nothing is written back.
"""

from __future__ import annotations

from ...errors import ObservabilityError
from ...semantics.checker import SchemaCatalog, SemanticChecker
from ...sql import ast_nodes as ast
from ...sql.executor import Executor, Result
from ...sql.parser import parse
from ...sql.source import ListDatabase, ListSource
from .tables import SYS_TABLES, StoreBundle


class SystemCatalog:
    """SQL access to one :class:`~repro.obs.introspect.tables.StoreBundle`."""

    def __init__(self, bundle: StoreBundle) -> None:
        self._bundle = bundle
        self._checker = SemanticChecker(self.schema_catalog())

    @property
    def bundle(self) -> StoreBundle:
        return self._bundle

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(SYS_TABLES)

    def schema_catalog(self) -> SchemaCatalog:
        """The ``sys.*`` schemas as a checker-resolvable catalog."""
        return SchemaCatalog(table.schema for table in SYS_TABLES.values())

    # ------------------------------------------------------------------ query
    def query(self, sql: str) -> Result:
        """Run one SELECT over the system tables.

        Raises :class:`~repro.errors.ObservabilityError` for non-SELECT
        statements and :class:`~repro.errors.SemanticError` (with
        positioned diagnostics) for queries that do not check.
        """
        statement = parse(sql)
        if not isinstance(statement, ast.SelectStmt):
            raise ObservabilityError(
                "the system catalog is read-only: "
                f"{type(statement).__name__} is not a SELECT"
            )
        check = self._checker.check_statement(statement)
        check.raise_if_errors(sql)
        checked = check.statement
        assert isinstance(checked, ast.SelectStmt)
        return self._execute(checked)

    def _execute(self, statement: ast.SelectStmt) -> Result:
        bundle = self._bundle

        def load(name: str) -> ListSource:
            table = SYS_TABLES[name]
            return ListSource(table.schema, table.rows(bundle))

        return Executor(ListDatabase("sys", load)).execute(statement, txn=None)
