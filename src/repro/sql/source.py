"""The read contract: what SELECT uses of a table and of a database.

The read side of the executor (``_select``, ``_candidates``, ``_hash_join``,
``_project``, ``_aggregate``, ``_order``) and the access-path chooser
(:func:`repro.sql.planner.choose_path`) use five things of a table and three
of a database, plus its ``name`` for ``USER``.  They are stated here, once.
:class:`repro.engine.table.Table` and :class:`repro.engine.database.Database`
satisfy them as they are, so there is no adapter around either; anything
else that does — the ``sys.*`` catalog's per-query view of the observability
stores (:mod:`repro.obs.introspect.catalog`) — is read by the same executor,
planned by the same chooser, with no copy into an engine table.

Row ids are the source's own currency: whatever ``scan`` yields next to a
row, ``read`` and the source's indexes take back.  A source without indexes
answers ``index_on`` with ``None`` and is planned as ``scan``.

``scan`` filters: the executor hands it the statement's compiled predicate as
``keep`` (a function of the narrow value tuple alone), so a source examines
every row but builds a row id and yields only for the rows kept.  What a
source charges for a scan it charges per row examined, kept or not.

INSERT/UPDATE/DELETE and DDL are outside the contract: they change an engine
``Database`` inside a transaction, and the executor refuses them over
anything else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Protocol, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clock import VirtualClock
    from ..engine.costs import CostModel
    from ..engine.index import Index
    from ..engine.schema import TableSchema


class RowSource(Protocol):
    """A table as SELECT and the access-path chooser read it."""

    name: str
    schema: TableSchema

    def scan(
        self,
        columns: Sequence[int],
        keep: Callable[[tuple[Any, ...]], Any] | None = None,
    ) -> Iterator[tuple[Any, tuple[Any, ...]]]:
        """The ``(row id, values)`` of every row ``keep`` accepts (default:
        every row); ``columns`` as for :meth:`read`, and ``keep`` is called
        with those values."""

    def read(self, row_id: Any, columns: Sequence[int]) -> tuple[Any, ...]:
        """One row's values at the ascending ``columns`` positions."""

    def index_on(self, column: str) -> Index | None:
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
