"""The read contract: what SELECT uses of a table and of a database.

The read side of the executor (a SELECT shape's plan, ``_Select``, and
``_select``, ``_values``, ``_hash_join``, ``_aggregate``, ``_order``) and the
access-path chooser (:func:`repro.sql.planner.choose_path`) use five things of a table and three
of a database, plus its ``name`` for ``USER``.  They are stated here, once.
:class:`repro.engine.table.Table` and :class:`repro.engine.database.Database`
satisfy them as they are, so there is no adapter around either.  The one
other source is a list of rows, :class:`ListSource`, in a
:class:`ListDatabase` on a clock of its own: the ``sys.*`` catalog's
per-query view of the observability stores
(:mod:`repro.obs.introspect.catalog`) and a view's contents recomputed from
given rows (:func:`repro.warehouse.views.contents`) are read that way — by
the same executor, planned by the same chooser, with no copy into an engine
table and no charge to anyone's clock.

Row ids are the source's own currency: what its indexes hand out, ``read``
takes back.  A source without indexes answers ``index_on`` with ``None``, is
planned as ``scan`` and is never asked to ``read``.

``scan_values`` is the values-only read, and it filters: the executor hands
it the statement's WHERE in its one engine-crossing form, a *page filter*
(:data:`repro.engine.table.PageFilter` — an iterable of narrow value tuples
in, the ascending positions kept out), and the source applies it to whatever
batch of rows it reads at once: a heap page for an engine table, everything
for a list.  No row id is built and nothing is called per row.  What a
source charges for a scan it charges per row examined, kept or not, and it
may charge a batch's rows together before handing the first of them over:
SELECT neither reads the clock between two rows nor charges it anything but
the scan's own per-row constant (the join probe), so only the total shows.

INSERT/UPDATE/DELETE and DDL are outside the contract: they change an engine
``Database`` inside a transaction, and the executor refuses them over
anything else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol, Sequence

from ..clock import VirtualClock
from ..engine.costs import DEFAULT_COST_MODEL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.costs import CostModel
    from ..engine.index import BTreeIndex
    from ..engine.schema import TableSchema
    from ..engine.table import PageFilter


class RowSource(Protocol):
    """A table as SELECT and the access-path chooser read it."""

    name: str
    schema: TableSchema

    def scan_values(
        self,
        columns: Sequence[int],
        keep: PageFilter | None = None,
    ) -> Iterable[tuple[Any, ...]]:
        """The values of every row ``keep`` accepts (default: every row), in
        the source's order; ``columns`` as for :meth:`read`, and ``keep`` is
        given those values, a batch of rows at a time."""

    def read(self, row_id: Any, columns: Sequence[int]) -> tuple[Any, ...]:
        """One row's values at the ascending ``columns`` positions."""

    def index_on(self, column: str) -> BTreeIndex | None:
        """An index over ``column``, or ``None``: the chooser then scans."""


class SourceDatabase(Protocol):
    """A database as SELECT reads it."""

    #: What ``USER`` evaluates to.
    name: str
    #: ``NOW()`` reads it; join probes and sorts charge their CPU to it.
    clock: VirtualClock
    costs: CostModel

    def table(self, name: str) -> RowSource:
        """The source a FROM or JOIN clause names."""


class ListSource:
    """A table held as a list of rows, read in place.

    A row's position is its id.  There is no index, so the access-path
    chooser always plans ``scan``.
    """

    def __init__(self, schema: TableSchema, rows: Sequence[tuple[Any, ...]]) -> None:
        self.name = schema.name
        self.schema = schema
        self._rows = rows

    def read(self, row_id: int, columns: Sequence[int]) -> tuple[Any, ...]:
        row = self._rows[row_id]
        return tuple(row[c] for c in columns)

    def scan_values(
        self, columns: Sequence[int], keep: PageFilter | None = None
    ) -> list[tuple[Any, ...]]:
        rows = [self.read(row_id, columns) for row_id in range(len(self._rows))]
        return rows if keep is None else [rows[at] for at in keep(rows)]

    def index_on(self, column: str) -> None:
        return None


class ListDatabase:
    """List-held tables as one query reads them.

    ``load`` makes a table's :class:`ListSource` on the query's first
    reference to it, and that source is kept for the rest of the query, so
    a self-join sees one snapshot.  The CPU the executor charges for join
    probes and sorts lands on a clock private to the query.
    """

    costs = DEFAULT_COST_MODEL

    def __init__(self, name: str, load: Callable[[str], ListSource]) -> None:
        self.name = name
        self.clock = VirtualClock()
        self._load = load
        self._sources: dict[str, ListSource] = {}

    def table(self, name: str) -> ListSource:
        if name not in self._sources:
            self._sources[name] = self._load(name)
        return self._sources[name]
