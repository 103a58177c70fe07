"""The warehouse: a database instance with mirrors and materialized views.

Convenience facade tying the warehouse pieces together: mirror tables of
source tables (targets for both integrators), materialized SPJ views, and
the initial-load path ("Your Warehouse is Empty", the paper's companion
report [29]).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..clock import VirtualClock
from ..core.selfmaint import ViewDefinition
from ..engine.costs import DEFAULT_COST_MODEL, CostModel
from ..engine.database import Database
from ..engine.schema import TableSchema
from ..engine.session import Session
from ..engine.table import InsertMode
from ..errors import WarehouseError
from .views import MaterializedView


class Warehouse:
    """A warehouse database plus its mirrors and views."""

    def __init__(
        self,
        name: str = "warehouse",
        clock: VirtualClock | None = None,
        costs: CostModel = DEFAULT_COST_MODEL,
        product: str = "ReproDB",
    ) -> None:
        self.database = Database(name, clock=clock, costs=costs, product=product)
        self._views: dict[str, MaterializedView] = {}

    @property
    def clock(self) -> VirtualClock:
        return self.database.clock

    def connect(self) -> Session:
        return self.database.connect()

    # ----------------------------------------------------------------- mirrors
    def create_mirror(self, source_schema: TableSchema) -> None:
        """Create an empty mirror of a source table, under the same name."""
        self.database.create_table(source_schema)

    def initial_load_rows(self, mirror_name: str, rows: Iterable[Sequence]) -> int:
        """Load a mirror directly from row tuples (internal bulk path).

        One transaction: a load that fails is aborted, so nothing of it
        stays in the mirror, and the error is re-raised.
        """
        table = self.database.table(mirror_name)
        txn = self.database.begin()
        try:
            count = table.insert_many(txn, rows, mode=InsertMode.BULK_INTERNAL)
        except Exception:
            self.database.abort(txn)
            raise
        self.database.commit(txn)
        return count

    def staging_refresh(self, source_table: str, rows: Iterable[Sequence]) -> int:
        """Bulk-reload a mirror (and its views) from a staged full extract.

        The adaptive extraction switcher
        (:class:`~repro.extraction.switcher.AdaptiveExtractionSwitcher`)
        routes a table here when replaying its op-delta backlog would cost
        more than reloading its state: truncate (minimal logging, like the
        real utility), refill through the fully internal bulk path, then
        re-derive every view over the table from the staged rows — the
        refill and the re-derivation in one warehouse transaction, so OLAP
        queries never see a half-loaded mirror.  A refill that fails is
        aborted and its error re-raised; the truncates are not undone, so
        the mirror (and each view truncated so far) is left empty, not
        half-loaded.  Returns the number of rows loaded.
        """
        table = self.database.table(source_table)
        table.truncate()
        staged = [tuple(row) for row in rows]
        txn = self.database.begin()
        try:
            table.insert_many(txn, staged, mode=InsertMode.BULK_INTERNAL)
            for view in self._views.values():
                if view.definition.base_table == source_table:
                    view.table.truncate()
                    view.initialize(staged, txn)
        except Exception:
            self.database.abort(txn)
            raise
        self.database.commit(txn)
        return len(staged)

    # ------------------------------------------------------------------- views
    def define_view(
        self, definition: ViewDefinition, base_schema: TableSchema
    ) -> MaterializedView:
        if definition.name in self._views:
            raise WarehouseError(f"view {definition.name!r} already defined")
        view = MaterializedView(self.database, definition, base_schema)
        self._views[definition.name] = view
        return view

    def view(self, name: str) -> MaterializedView:
        try:
            return self._views[name]
        except KeyError:
            raise WarehouseError(f"no view named {name!r}") from None

    @property
    def views(self) -> list[MaterializedView]:
        return list(self._views.values())
