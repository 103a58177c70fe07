"""Simulated disk: a page store that charges I/O to the virtual clock.

Pages are held in memory (this is a simulation substrate, not a durability
layer) but every read/write charges the calibrated random or sequential I/O
cost, which is where the experiments' timing behaviour comes from.
"""

from __future__ import annotations

from ..clock import VirtualClock
from ..errors import StorageError
from ..obs.metrics import MetricsLike, MetricsRegistry
from .costs import CostModel

#: Page size in bytes; matches the common commercial default of the era.
PAGE_SIZE = 8192


class DiskManager:
    """Allocates and stores pages, charging virtual I/O costs.

    ``read_page``/``write_page`` default to *random* I/O costs (buffer-pool
    misses and write-backs); the utilities (Export, snapshot dumps) pass
    ``sequential=True`` to model their streaming access pattern.
    """

    def __init__(
        self,
        clock: VirtualClock,
        costs: CostModel,
        metrics: MetricsLike | None = None,
    ) -> None:
        self._clock = clock
        self._costs = costs
        self._pages: dict[int, bytes] = {}
        self._next_page_no = 0
        if metrics is None:
            metrics = MetricsRegistry()
        self._m_reads = metrics.counter("engine.disk.read")
        self._m_writes = metrics.counter("engine.disk.write")

    @property
    def reads(self) -> int:
        return int(self._m_reads.value)

    @property
    def writes(self) -> int:
        return int(self._m_writes.value)

    def allocate_page(self) -> int:
        """Reserve a fresh page number (zero filled until first write)."""
        page_no = self._next_page_no
        self._next_page_no += 1
        self._pages[page_no] = bytes(PAGE_SIZE)
        return page_no

    def read_page(self, page_no: int, sequential: bool = False) -> bytes:
        """Read a page, charging random-miss or sequential cost."""
        try:
            data = self._pages[page_no]
        except KeyError:
            raise StorageError(f"read of unallocated page {page_no}") from None
        self._m_reads.inc()
        cost = self._costs.seq_page_read if sequential else self._costs.page_read_miss
        self._clock.advance(cost)
        return data

    def write_page(self, page_no: int, data: bytes) -> None:
        """Write a page back, charging the random write cost."""
        if page_no not in self._pages:
            raise StorageError(f"write to unallocated page {page_no}")
        if len(data) != PAGE_SIZE:
            raise StorageError(
                f"page write must be exactly {PAGE_SIZE} bytes, got {len(data)}"
            )
        self._pages[page_no] = bytes(data)
        self._m_writes.inc()
        self._clock.advance(self._costs.page_write)
