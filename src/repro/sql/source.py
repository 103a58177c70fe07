"""The read contract: what SELECT uses of a table and of a database.

The read side of the executor (``_select``, ``_values``, ``_hash_join``,
``_project``, ``_aggregate``, ``_order``) and the access-path chooser
(:func:`repro.sql.planner.choose_path`) use five things of a table and three
of a database, plus its ``name`` for ``USER``.  They are stated here, once.
:class:`repro.engine.table.Table` and :class:`repro.engine.database.Database`
satisfy them as they are, so there is no adapter around either; anything
else that does — the ``sys.*`` catalog's per-query view of the observability
stores (:mod:`repro.obs.introspect.catalog`) — is read by the same executor,
planned by the same chooser, with no copy into an engine table.

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

from typing import TYPE_CHECKING, Any, Iterable, Protocol, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clock import VirtualClock
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
