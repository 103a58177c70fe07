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

from collections.abc import Sequence

from ...clock import VirtualClock
from ...engine.costs import DEFAULT_COST_MODEL
from ...engine.table import PageFilter
from ...errors import ObservabilityError
from ...semantics.checker import SchemaCatalog, SemanticChecker
from ...sql import ast_nodes as ast
from ...sql.executor import Executor, Result
from ...sql.parser import parse
from .tables import SYS_TABLES, Row, StoreBundle, SysTable


class _SysSource:
    """One ``sys.*`` table as one query reads it: the adapter's rows, in place.

    A row's position is its id.  There is no index, so the access-path
    chooser always plans ``scan``.
    """

    def __init__(self, table: SysTable, bundle: StoreBundle) -> None:
        self.name = table.name
        self.schema = table.schema
        self._rows = table.rows(bundle)

    def read(self, row_id: int, columns: Sequence[int]) -> Row:
        row = self._rows[row_id]
        return tuple(row[c] for c in columns)

    def scan_values(
        self, columns: Sequence[int], keep: PageFilter | None = None
    ) -> list[Row]:
        rows = [self.read(row_id, columns) for row_id in range(len(self._rows))]
        return rows if keep is None else [rows[at] for at in keep(rows)]

    def index_on(self, column: str) -> None:
        return None


class _QuerySnapshot:
    """What one query reads of a :class:`StoreBundle`.

    A table's adapter runs on the query's first reference to it and the
    rows are kept for the rest of the query, so a self-join sees one
    snapshot; the next query starts over.  The CPU the executor charges
    for join probes and sorts lands on a clock private to the query.
    """

    name = "sys"
    costs = DEFAULT_COST_MODEL

    def __init__(self, bundle: StoreBundle) -> None:
        self._bundle = bundle
        self._sources: dict[str, _SysSource] = {}
        self.clock = VirtualClock()

    def table(self, name: str) -> _SysSource:
        if name not in self._sources:
            self._sources[name] = _SysSource(SYS_TABLES[name], self._bundle)
        return self._sources[name]


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
        return Executor(_QuerySnapshot(self._bundle)).execute(statement, txn=None)
