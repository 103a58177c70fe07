"""Secondary indexes: one kind, a B-tree (equality + range).

An index maps a single column's value to the :class:`RowId`\\ s holding it.
The B-tree is implemented as a sorted array with bisection — the asymptotics
the experiments need (logarithmic probes, ordered range scans) without the
node machinery.  Maintenance and probe costs are charged to the virtual
clock here, so any code path that touches an index pays for it.

A NULL key is an entry like any other for maintenance (it is charged,
counted and found again by ``delete``) but lives outside the keyed
structure: NULL satisfies neither ``=`` nor a range, so no probe returns it,
it never collides in a unique index, and the sorted array never has to order
it against a value.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, Sequence

from ..clock import VirtualClock
from ..errors import ConstraintError, StorageError
from ..obs.metrics import MetricsLike, MetricsRegistry
from .costs import CostModel
from .rows import RowId


def span(
    keys: Sequence[Any], low: Any, high: Any, include_low: bool, include_high: bool
) -> range:
    """The positions of the sorted ``keys`` inside the interval from ``low``
    to ``high`` (``None``: that side is open; a flag says whether its side
    is closed), found by bisection — the one range search of the B-tree's
    estimate and scan and of a scan's page bounds.

    A NaN end, which no key satisfies, spans nothing, closed or not."""
    if low != low or high != high:
        return range(0)
    start = 0 if low is None else (bisect_left if include_low else bisect_right)(keys, low)
    if high is None:
        return range(start, len(keys))
    return range(start, (bisect_right if include_high else bisect_left)(keys, high))


class BTreeIndex:
    """The engine's one index kind: an ordered index backed by a sorted
    ``(key, RowId)`` array with bisection, answering equality and ranges."""

    def __init__(
        self,
        name: str,
        column: str,
        clock: VirtualClock,
        costs: CostModel,
        unique: bool = False,
        metrics: MetricsLike | None = None,
    ) -> None:
        self.name = name
        self.column = column
        self.unique = unique
        self._clock = clock
        self._costs = costs
        self._keys: list[Any] = []
        self._row_ids: list[RowId] = []
        #: The rows whose key is NULL: entries no probe returns.
        self._null_keyed: list[RowId] = []
        if metrics is None:
            metrics = MetricsRegistry()
        self._metrics = metrics
        self._m_probes = metrics.counter("engine.index.probe")

    @property
    def probes(self) -> int:
        """How many times this index was probed (lookups + range scans)."""
        return int(self._m_probes.value)

    @property
    def num_entries(self) -> int:
        return len(self._keys) + len(self._null_keyed)

    # ----------------------------------------------------------- maintenance
    def insert(self, key: Any, row_id: RowId) -> None:
        self._clock.advance(self._costs.index_insert)
        if key is None:
            self._null_keyed.append(row_id)
            return
        position = bisect_right(self._keys, key)
        if self.unique and position and self._keys[position - 1] == key:
            raise ConstraintError(
                f"unique index {self.name!r} already contains key {key!r}"
            )
        self._keys.insert(position, key)
        self._row_ids.insert(position, row_id)

    def delete(self, key: Any, row_id: RowId) -> None:
        self._clock.advance(self._costs.index_delete)
        if key is None:
            if row_id in self._null_keyed:
                self._null_keyed.remove(row_id)
                return
        else:
            for position in span(self._keys, key, key, True, True):
                if self._row_ids[position] == row_id:
                    del self._keys[position]
                    del self._row_ids[position]
                    return
        raise StorageError(f"index {self.name!r}: entry ({key!r}, {row_id}) not found")

    # ----------------------------------------------------------------- probes
    def lookup(self, key: Any) -> list[RowId]:
        """Return the RowIds for ``key`` (empty list if absent, or NULL)."""
        matches = [] if key is None else self._row_ids[
            bisect_left(self._keys, key):bisect_right(self._keys, key)
        ]
        self._m_probes.inc()
        self._clock.advance(self._costs.index_lookup * max(1, len(matches)))
        return matches

    def estimate_range(self, low: Any, high: Any,
                       include_low: bool = True, include_high: bool = True) -> int:
        """Optimizer statistic: how many entries fall in the range.

        This models the histogram estimate a real optimizer consults and is
        deliberately free of clock charges — it is how the planner decides
        the paper's "indices may not be used by the query optimizer if the
        deltas form a significant portion of the table" behaviour (§3.1.1).
        """
        return len(span(self._keys, low, high, include_low, include_high))

    def range_scan(self, low: Any, high: Any,
                   include_low: bool = True, include_high: bool = True) -> Iterator[RowId]:
        """Ordered scan of the keys in the interval (:func:`span`)."""
        positions = span(self._keys, low, high, include_low, include_high)
        self._m_probes.inc()
        self._clock.advance(self._costs.index_lookup * max(1, len(positions)))
        for position in positions:
            yield self._row_ids[position]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        uniq = " UNIQUE" if self.unique else ""
        return f"BTreeIndex({self.name!r} ON {self.column}{uniq}, {self.num_entries} entries)"
