"""Secondary indexes: hash (equality) and B-tree (equality + range).

Indexes map a single column's value to the :class:`RowId`\\ s holding it.
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

import bisect
from abc import ABC, abstractmethod
from typing import Any, Iterator

from ..clock import VirtualClock
from ..errors import ConstraintError, StorageError
from ..obs.metrics import MetricsLike, MetricsRegistry
from .costs import CostModel
from .rows import RowId


class Index(ABC):
    """Common behaviour of the engine's index kinds."""

    #: Set by subclasses: whether this index supports ordered range scans.
    supports_range: bool = False

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
        self._num_entries = 0
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
        return self._num_entries

    # ----------------------------------------------------------- maintenance
    def insert(self, key: Any, row_id: RowId) -> None:
        self._clock.advance(self._costs.index_insert)
        if key is None:
            self._null_keyed.append(row_id)
        elif self.unique and self._contains_key(key):
            raise ConstraintError(
                f"unique index {self.name!r} already contains key {key!r}"
            )
        else:
            self._insert(key, row_id)
        self._num_entries += 1

    def delete(self, key: Any, row_id: RowId) -> None:
        self._clock.advance(self._costs.index_delete)
        if key is not None:
            self._delete(key, row_id)
        elif row_id in self._null_keyed:
            self._null_keyed.remove(row_id)
        else:
            raise StorageError(
                f"index {self.name!r}: entry ({key!r}, {row_id}) not found"
            )
        self._num_entries -= 1

    # ----------------------------------------------------------------- probes
    def lookup(self, key: Any) -> list[RowId]:
        """Return the RowIds for ``key`` (empty list if absent, or NULL)."""
        matches = [] if key is None else self._lookup(key)
        self._m_probes.inc()
        self._clock.advance(self._costs.index_lookup * max(1, len(matches)))
        return matches

    def range_scan(self, low: Any, high: Any,
                   include_low: bool = True, include_high: bool = True) -> Iterator[RowId]:
        """Ordered scan of keys in ``[low, high]`` (B-tree only)."""
        raise StorageError(f"index {self.name!r} does not support range scans")

    def estimate_range(self, low: Any, high: Any,
                       include_low: bool = True, include_high: bool = True) -> int:
        """How many entries fall in ``[low, high]`` (B-tree only)."""
        raise StorageError(f"index {self.name!r} does not support range scans")

    # ------------------------------------------------------------- subclasses
    @abstractmethod
    def _insert(self, key: Any, row_id: RowId) -> None: ...

    @abstractmethod
    def _delete(self, key: Any, row_id: RowId) -> None: ...

    @abstractmethod
    def _lookup(self, key: Any) -> list[RowId]: ...

    @abstractmethod
    def _contains_key(self, key: Any) -> bool: ...

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = type(self).__name__
        uniq = " UNIQUE" if self.unique else ""
        return f"{kind}({self.name!r} ON {self.column}{uniq}, {self._num_entries} entries)"


class HashIndex(Index):
    """Equality-only index backed by a dict of key -> RowId list."""

    supports_range = False

    def __init__(self, name: str, column: str, clock: VirtualClock,
                 costs: CostModel, unique: bool = False,
                 metrics: MetricsLike | None = None) -> None:
        super().__init__(name, column, clock, costs, unique, metrics)
        self._buckets: dict[Any, list[RowId]] = {}

    def _insert(self, key: Any, row_id: RowId) -> None:
        self._buckets.setdefault(key, []).append(row_id)

    def _delete(self, key: Any, row_id: RowId) -> None:
        bucket = self._buckets.get(key)
        if not bucket or row_id not in bucket:
            raise StorageError(
                f"index {self.name!r}: entry ({key!r}, {row_id}) not found"
            )
        bucket.remove(row_id)
        if not bucket:
            del self._buckets[key]

    def _lookup(self, key: Any) -> list[RowId]:
        return list(self._buckets.get(key, ()))

    def _contains_key(self, key: Any) -> bool:
        return key in self._buckets


class BTreeIndex(Index):
    """Ordered index backed by a sorted (key, RowId) array with bisection."""

    supports_range = True

    def __init__(self, name: str, column: str, clock: VirtualClock,
                 costs: CostModel, unique: bool = False,
                 metrics: MetricsLike | None = None) -> None:
        super().__init__(name, column, clock, costs, unique, metrics)
        self._keys: list[Any] = []
        self._row_ids: list[RowId] = []

    def _insert(self, key: Any, row_id: RowId) -> None:
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._row_ids.insert(position, row_id)

    def _delete(self, key: Any, row_id: RowId) -> None:
        position = bisect.bisect_left(self._keys, key)
        while position < len(self._keys) and self._keys[position] == key:
            if self._row_ids[position] == row_id:
                del self._keys[position]
                del self._row_ids[position]
                return
            position += 1
        raise StorageError(f"index {self.name!r}: entry ({key!r}, {row_id}) not found")

    def _lookup(self, key: Any) -> list[RowId]:
        low = bisect.bisect_left(self._keys, key)
        high = bisect.bisect_right(self._keys, key)
        return self._row_ids[low:high]

    def _contains_key(self, key: Any) -> bool:
        position = bisect.bisect_left(self._keys, key)
        return position < len(self._keys) and self._keys[position] == key

    def estimate_range(self, low: Any, high: Any,
                       include_low: bool = True, include_high: bool = True) -> int:
        """Optimizer statistic: how many entries fall in the range.

        This models the histogram estimate a real optimizer consults and is
        deliberately free of clock charges — it is how the planner decides
        the paper's "indices may not be used by the query optimizer if the
        deltas form a significant portion of the table" behaviour (§3.1.1).
        """
        if low is None:
            start = 0
        else:
            start = (bisect.bisect_left if include_low else bisect.bisect_right)(
                self._keys, low
            )
        if high is None:
            stop = len(self._keys)
        else:
            stop = (bisect.bisect_right if include_high else bisect.bisect_left)(
                self._keys, high
            )
        return max(0, stop - start)

    def range_scan(self, low: Any, high: Any,
                   include_low: bool = True, include_high: bool = True) -> Iterator[RowId]:
        if low is None:
            start = 0
        else:
            start = (bisect.bisect_left if include_low else bisect.bisect_right)(
                self._keys, low
            )
        if high is None:
            stop = len(self._keys)
        else:
            stop = (bisect.bisect_right if include_high else bisect.bisect_left)(
                self._keys, high
            )
        count = max(0, stop - start)
        self._m_probes.inc()
        self._clock.advance(self._costs.index_lookup * max(1, count))
        for position in range(start, stop):
            yield self._row_ids[position]
