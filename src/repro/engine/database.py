"""The database: catalog, transactions, checkpoints and connections.

A :class:`Database` bundles a disk, buffer pool, WAL, transaction manager
and table catalog over one shared :class:`~repro.clock.VirtualClock`.
Several databases can share a clock (source system, staging area and
warehouse inside one experiment) so that costs compose end-to-end.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..clock import VirtualClock
from ..errors import CatalogError
from ..obs.context import ambient_metrics, ambient_tracer
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACER, Tracer
from .buffer import DEFAULT_POOL_PAGES, BufferPool
from .costs import DEFAULT_COST_MODEL, CostModel
from .disk import DiskManager
from .schema import TableSchema
from .table import Table
from .transactions import Transaction, TransactionManager
from .wal import LogManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .session import Session


class Database:
    """A single DBMS instance.

    Parameters
    ----------
    name:
        Instance name (used in error messages and provenance tags).
    clock:
        Shared virtual clock; a private one is created when omitted.
    costs:
        Cost model; defaults to the calibrated :data:`DEFAULT_COST_MODEL`.
    buffer_pages:
        Buffer pool size.  Experiments model "table fits in RAM" vs
        "table thrashes the pool" by sizing this (see DESIGN.md).
    product / product_version:
        Simulated DBMS product identity; Export/Import and log extraction
        enforce product/version compatibility with these tags.
    archive_mode:
        Retain closed WAL segments for log-based extraction (§3.1.4).
    metrics:
        Shared :class:`~repro.obs.MetricsRegistry`.  Defaults to the
        ambient registry installed by :func:`repro.obs.observe` when one
        is active, else a private registry; every engine instrument is
        labelled ``db=<name>`` so several instances can share a registry.
        Pass :data:`repro.obs.NULL_REGISTRY` to opt out entirely (the
        read-through stat properties then read zero).
    tracer:
        Shared :class:`~repro.obs.Tracer`; same ambient-default rule, but
        the fallback is the no-op tracer.  ``self.tracer`` is the tracer
        bound to this instance's clock.
    """

    def __init__(
        self,
        name: str = "db",
        clock: VirtualClock | None = None,
        costs: CostModel = DEFAULT_COST_MODEL,
        buffer_pages: int = DEFAULT_POOL_PAGES,
        product: str = "ReproDB",
        product_version: str = "1.0",
        archive_mode: bool = False,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.name = name
        self.clock = clock if clock is not None else VirtualClock()
        self.costs = costs
        self.product = product
        self.product_version = product_version
        if metrics is None:
            metrics = ambient_metrics()
        if metrics is None:
            metrics = MetricsRegistry()
        self.metrics = metrics
        if tracer is None:
            tracer = ambient_tracer()
        if tracer is None:
            tracer = NULL_TRACER
        self.tracer = tracer.bound(self.clock)
        scoped = metrics.labelled(db=name)
        self._scoped_metrics = scoped
        self.disk = DiskManager(self.clock, costs, metrics=scoped)
        self.buffer_pool = BufferPool(
            self.disk, self.clock, costs, buffer_pages, metrics=scoped
        )
        self.log = LogManager(
            self.clock, costs, product, product_version, archive_mode,
            metrics=scoped,
        )
        self.transactions = TransactionManager(self.log, metrics=scoped)
        self._tables: dict[str, Table] = {}

    # ----------------------------------------------------------------- catalog
    def create_table(
        self, schema: TableSchema, auto_timestamp: bool = False
    ) -> Table:
        """Create a table; a primary key gets a unique B-tree automatically."""
        if schema.name in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists in {self.name!r}")
        table = Table(
            schema, self.buffer_pool, self.log, self.clock, self.costs,
            auto_timestamp=auto_timestamp, metrics=self._scoped_metrics,
        )
        if schema.primary_key is not None:
            table.create_index(f"pk_{schema.name}", schema.primary_key, unique=True)
        self._tables[schema.name] = table
        return table

    def drop_table(self, name: str) -> None:
        table = self.table(name)
        table.truncate()
        del self._tables[name]

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist in {self.name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    # ------------------------------------------------------------ transactions
    def begin(self) -> Transaction:
        return self.transactions.begin()

    def commit(self, txn: Transaction) -> None:
        self.transactions.commit(txn)

    def abort(self, txn: Transaction) -> None:
        self.transactions.abort(txn)

    def checkpoint(self) -> None:
        """Flush dirty pages and close the active WAL segment."""
        with self.tracer.span("engine.database.checkpoint", db=self.name):
            self.buffer_pool.flush_all()
            self.log.checkpoint()

    # -------------------------------------------------------------- connections
    def connect(self) -> "Session":
        """Open a client session, paying the connection-setup cost."""
        from .session import Session

        self.clock.advance(self.costs.connection_setup)
        return Session(self)

    def internal_session(self) -> "Session":
        """A free session for engine-internal work (utilities, recovery)."""
        from .session import Session

        return Session(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Database({self.name!r}, tables={list(self._tables)})"
