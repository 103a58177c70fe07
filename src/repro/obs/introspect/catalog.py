"""The read-only system catalog: ad-hoc SQL over observability stores.

:class:`SystemCatalog` wires the ``sys.*`` virtual tables into the
existing SQL front end.  A query runs through the same parser, the same
:class:`~repro.semantics.checker.SemanticChecker` (resolving names
against the system-table schemas, so a typo in a telemetry query gets
the same positioned diagnostic as one in application SQL) and the same
executor — the only introspection-specific machinery is the snapshot
step that materialises the *referenced* tables into a scratch database.

Two invariants the catalog enforces:

* **Read-only.**  Only ``SELECT`` reaches the executor; any DML/DDL
  statement is refused before semantic analysis.
* **Zero observer cost.**  The scratch database gets its own
  :class:`~repro.clock.VirtualClock`, its own metrics registry and the
  null tracer, so however expensive a telemetry query is, the observed
  pipeline's virtual time, metrics and traces are untouched.  Adapters
  only read the live stores; nothing is written back.
"""

from __future__ import annotations

from ...clock import VirtualClock
from ...engine.database import Database
from ...engine.table import InsertMode
from ...errors import ObservabilityError
from ...semantics.checker import SchemaCatalog, SemanticChecker
from ...sql import ast_nodes as ast
from ...sql.executor import Executor, Result
from ...sql.parser import parse
from ..metrics import MetricsRegistry
from ..tracing import NULL_TRACER
from .tables import SYS_TABLES, StoreBundle


class SystemCatalog:
    """SQL access to one :class:`~repro.obs.introspect.tables.StoreBundle`."""

    def __init__(self, bundle: StoreBundle) -> None:
        self._bundle = bundle

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
        check = SemanticChecker(self.schema_catalog()).check_statement(statement)
        check.raise_if_errors(sql)
        checked = check.statement
        assert isinstance(checked, ast.SelectStmt)
        return self._execute(checked)

    def _execute(self, statement: ast.SelectStmt) -> Result:
        database = self._scratch_database(self._referenced_tables(statement))
        txn = database.begin()
        try:
            return Executor(database).execute(statement, txn)
        finally:
            database.commit(txn)

    @staticmethod
    def _referenced_tables(statement: ast.SelectStmt) -> list[str]:
        names = [] if statement.table is None else [statement.table]
        names.extend(join.table for join in statement.joins)
        # Preserve first-reference order, drop duplicates.
        return list(dict.fromkeys(names))

    def _scratch_database(self, names: list[str]) -> Database:
        """Materialise the referenced snapshots into an isolated engine.

        The scratch database's clock starts at zero and advances only
        with the query's own work; its metrics registry and null tracer
        keep the observed pipeline's telemetry byte-identical whether or
        not anyone is querying it.
        """
        database = Database(
            "sys",
            clock=VirtualClock(),
            metrics=MetricsRegistry(),
            tracer=NULL_TRACER,
        )
        for name in names:
            sys_table = SYS_TABLES[name]
            database.create_table(sys_table.schema)
            rows = sys_table.rows(self._bundle)
            if not rows:
                continue
            table = database.table(name)
            txn = database.begin()
            table.insert_many(
                txn, rows, mode=InsertMode.BULK_INTERNAL, fire_triggers=False
            )
            database.commit(txn)
        return database
