"""Heap files: unordered record storage over slotted pages.

A :class:`HeapFile` owns an ordered list of page numbers and a free-space
list.  All access goes through the buffer pool so the cost of every
operation emerges from hit/miss/write-back accounting.

Reading the whole file is one walk, a page at a time: each step is one
buffer-pool fetch and hands over that page's live slot numbers and, as
lists, their records (:meth:`HeapFile.pages`: an index build,
:meth:`HeapFile.scan`) or their decoded rows, kept on the page until it is
next written (:meth:`HeapFile.decoded_pages`: the table's scans).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterator

from ..errors import StorageError
from .buffer import BufferPool
from .rows import PageDecoder, RowId


class HeapFile:
    """Fixed-width record heap with free-slot reuse."""

    def __init__(self, buffer_pool: BufferPool, record_size: int) -> None:
        self._pool = buffer_pool
        self.record_size = record_size
        self._page_nos: list[int] = []
        self._pages_with_space: list[int] = []
        self._num_records = 0

    # ----------------------------------------------------------------- status
    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def page_numbers(self) -> tuple[int, ...]:
        return tuple(self._page_nos)

    # -------------------------------------------------------------------- DML
    def insert(self, record: bytes) -> RowId:
        """Append a record, reusing freed slots before growing the file."""
        while self._pages_with_space:
            page_no = self._pages_with_space[-1]
            page = self._pool.fetch(page_no)
            if page.has_space:
                slot_no = page.insert(record)
                self._pool.mark_dirty(page_no)
                if not page.has_space:
                    self._pages_with_space.pop()
                self._num_records += 1
                return RowId(page_no, slot_no)
            self._pages_with_space.pop()
        page_no, page = self._pool.create(self.record_size)
        self._page_nos.append(page_no)
        slot_no = page.insert(record)
        if page.has_space:
            self._pages_with_space.append(page_no)
        self._num_records += 1
        return RowId(page_no, slot_no)

    def read(self, row_id: RowId) -> bytes:
        page = self._pool.fetch(row_id.page_no)
        return page.read(row_id.slot_no)

    def overwrite(self, row_id: RowId, record: bytes) -> bytes:
        """Replace a record in place; returns the before image."""
        page = self._pool.fetch(row_id.page_no)
        before = page.read(row_id.slot_no)
        page.overwrite(row_id.slot_no, record)
        self._pool.mark_dirty(row_id.page_no)
        return before

    def delete(self, row_id: RowId) -> bytes:
        """Free a record's slot; returns the before image."""
        page = self._pool.fetch(row_id.page_no)
        had_space = page.has_space
        before = page.delete(row_id.slot_no)
        self._pool.mark_dirty(row_id.page_no)
        if not had_space:
            self._pages_with_space.append(row_id.page_no)
        self._num_records -= 1
        return before

    def place(self, row_id: RowId, record: bytes) -> None:
        """Place a record at an exact address, growing the file as needed.

        Recovery replays log records physiologically: each record carries the
        page/slot it originally occupied, and redo must land it there.  The
        target database must replay allocations in the original order (i.e.
        start empty and apply the full committed history); otherwise the
        freshly allocated page number will not match and redo fails.
        """
        page_no = row_id.page_no
        last_page_no = self._page_nos[-1] if self._page_nos else -1
        if page_no > last_page_no:
            allocated_no, _page = self._pool.create(self.record_size)
            if allocated_no != page_no:
                raise StorageError(
                    f"allocated page {allocated_no} does not match logged page "
                    f"{page_no}; redo requires replaying the full history into "
                    "an empty database"
                )
            self._page_nos.append(allocated_no)
            self._pages_with_space.append(allocated_no)
        page = self._pool.fetch(page_no)
        page.insert_at(row_id.slot_no, record)
        self._pool.mark_dirty(page_no)
        if not page.has_space and page_no in self._pages_with_space:
            self._pages_with_space.remove(page_no)
        self._num_records += 1

    def pages(self) -> Iterator[tuple[int, list[int], list[bytes]]]:
        """Yield ``(page_no, live slot numbers, their records)`` page by
        page, one fetch per page.

        The page list is snapshotted up front, and each page's slots when the
        page is reached, so a concurrent append (e.g. a statement inserting
        into the table it reads, as INSERT..SELECT does) does not revisit its
        own output.  The raw records, read afresh: an index build and
        :meth:`scan` take these; the table's scans take
        :meth:`decoded_pages`.
        """
        fetch = self._pool.fetch
        for page_no in list(self._page_nos):
            yield page_no, *fetch(page_no).records()

    def decoded_pages(
        self, decode: PageDecoder
    ) -> Iterator[tuple[int, list[int], list[tuple[Any, ...]]]]:
        """:meth:`pages` with each page's records decoded by ``decode``:
        ``(page_no, live slot numbers, their rows)``, the same fetches and
        the same snapshots.

        The pair is :meth:`Page.decoded <repro.engine.page.Page.decoded>`'s:
        a page not written since its last read through ``decode`` is not
        decoded again, and the lists are never changed once handed out.
        This is the walk :class:`Table <repro.engine.table.Table>` filters
        and charges per step.
        """
        fetch = self._pool.fetch
        for page_no in list(self._page_nos):
            yield page_no, *fetch(page_no).decoded(decode)

    def scan(self) -> Iterator[tuple[RowId, bytes]]:
        """Every live ``(RowId, record)`` in page/slot order."""
        for page_no, slots, records in self.pages():
            yield from zip(map(RowId, repeat(page_no), slots), records)

    def truncate(self) -> int:
        """Drop every page; returns the number of records removed."""
        removed = self._num_records
        for page_no in self._page_nos:
            self._pool.drop(page_no)
        self._page_nos.clear()
        self._pages_with_space.clear()
        self._num_records = 0
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HeapFile(records={self._num_records}, pages={len(self._page_nos)}, "
            f"record_size={self.record_size})"
        )
