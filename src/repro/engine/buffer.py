"""LRU buffer pool.

The pool is where the paper's "fits in RAM vs does not" distinction lives:
the Figure 2 / Table 4 experiments run against a 10 MB table on a 128 MB
machine (everything cached → cheap logical reads), while the Table 2
timestamp scans run against a 1 GB table (pool thrash → every page is a
random disk read).  Experiments configure ``capacity`` accordingly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from ..clock import VirtualClock
from ..obs.metrics import MetricsLike, MetricsRegistry
from .costs import CostModel
from .disk import DiskManager
from .page import Page

#: Default pool size in pages (~32 MB), comfortably holding the 100k-row
#: experiment tables just as the paper's 128 MB machine held its 10 MB table.
DEFAULT_POOL_PAGES = 4096


class BufferPool:
    """Caches :class:`Page` objects over a :class:`DiskManager` with LRU eviction."""

    def __init__(
        self,
        disk: DiskManager,
        clock: VirtualClock,
        costs: CostModel,
        capacity: int = DEFAULT_POOL_PAGES,
        metrics: MetricsLike | None = None,
    ) -> None:
        if capacity < 2:
            raise ValueError(f"buffer pool needs at least 2 pages, got {capacity}")
        self._disk = disk
        self._clock = clock
        self._costs = costs
        self.capacity = capacity
        self._frames: OrderedDict[int, Page] = OrderedDict()
        self._dirty: set[int] = set()
        if metrics is None:
            metrics = MetricsRegistry()
        self._m_hits = metrics.counter("engine.buffer.hit")
        self._m_misses = metrics.counter("engine.buffer.miss")
        self._m_evictions = metrics.counter("engine.buffer.eviction")

    # ------------------------------------------------------------------ stats
    # Read-through views of the registry counters, preserving the pre-obs
    # ad-hoc attribute API (``pool.hits`` etc.).
    @property
    def hits(self) -> int:
        return int(self._m_hits.value)

    @property
    def misses(self) -> int:
        return int(self._m_misses.value)

    # ------------------------------------------------------------------ fetch
    def fetch(self, page_no: int) -> Page:
        """Return the page, charging a logical hit or a physical miss."""
        page = self._frames.get(page_no)
        if page is not None:
            self._frames.move_to_end(page_no)
            self._m_hits.inc()
            self._clock.advance(self._costs.page_read_hit)
            return page
        self._m_misses.inc()
        data = self._disk.read_page(page_no)
        page = Page.from_bytes(data)
        self._admit(page_no, page)
        return page

    def reused(self, page_no: int) -> bool:
        """Whether the page is in a frame, made the most recently used as a
        fetch makes it, its hit owed: counted and charged only when the
        caller hands the run of such pages to :meth:`charge_hits` — before
        anything else charges the clock."""
        try:
            self._frames.move_to_end(page_no)
        except KeyError:
            return False
        return True

    def framed(self, page_no: int) -> Page | None:
        """The page if it is in a frame, else None: nothing moved, counted
        or charged (a caller that reads it owes what :meth:`reused` owes)."""
        return self._frames.get(page_no)

    def charge_hits(self, records: Sequence[int], each: float) -> None:
        """Count a hit per entry of ``records`` (pages :meth:`reused`), and
        charge each page's hit followed by ``each`` per record of it:
        bit-equal to a :meth:`fetch` hit and ``advance_each(each, n)`` per
        page (:meth:`~repro.clock.VirtualClock.advance_runs`)."""
        self._m_hits.inc(len(records))
        self._clock.advance_runs(self._costs.page_read_hit, each, records)

    def create(self, record_size: int) -> tuple[int, Page]:
        """Allocate a brand-new formatted page and cache it dirty."""
        page_no = self._disk.allocate_page()
        page = Page(record_size)
        self._admit(page_no, page)
        self.mark_dirty(page_no)
        return page_no, page

    def mark_dirty(self, page_no: int) -> None:
        if page_no not in self._frames:
            # The page was evicted between fetch and mark; re-fault it so the
            # dirty bit has a frame to attach to.
            self.fetch(page_no)
        self._dirty.add(page_no)

    # ------------------------------------------------------------------ flush
    def flush_page(self, page_no: int) -> None:
        """Write one dirty page back (no-op if clean or absent)."""
        if page_no in self._dirty and page_no in self._frames:
            self._disk.write_page(page_no, self._frames[page_no].to_bytes())
            self._dirty.discard(page_no)

    def flush_all(self) -> int:
        """Write back every dirty page (checkpoint); returns pages written."""
        written = 0
        for page_no in sorted(self._dirty & set(self._frames)):
            self._disk.write_page(page_no, self._frames[page_no].to_bytes())
            written += 1
        self._dirty.clear()
        return written

    def drop(self, page_no: int) -> None:
        """Discard a frame without writing it (used by DROP TABLE)."""
        self._frames.pop(page_no, None)
        self._dirty.discard(page_no)

    # --------------------------------------------------------------- internals
    def _admit(self, page_no: int, page: Page) -> None:
        while len(self._frames) >= self.capacity:
            victim_no, victim = self._frames.popitem(last=False)
            self._m_evictions.inc()
            if victim_no in self._dirty:
                self._disk.write_page(victim_no, victim.to_bytes())
                self._dirty.discard(victim_no)
        self._frames[page_no] = page
        self._frames.move_to_end(page_no)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BufferPool({len(self._frames)}/{self.capacity} frames, "
            f"{len(self._dirty)} dirty, hit_ratio={self.hit_ratio:.2f})"
        )
