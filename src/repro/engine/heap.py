"""Heap files: unordered record storage over slotted pages.

A :class:`HeapFile` owns an ordered list of page numbers and a free-space
list.  All access goes through the buffer pool so the cost of every
operation emerges from hit/miss/write-back accounting.

Reading the whole file is one walk, a page at a time: each step is one
buffer-pool fetch (:meth:`HeapFile.fetched`), which hands over the page —
for what it keeps: the table's scans take its decoded rows, kept on the page
and patched when it is written — or that page's live slot numbers and, as
lists, their records
(:meth:`HeapFile.pages`: an index build, :meth:`HeapFile.scan`).

The file also keeps a **write stamp**: a count every page write bumps, and
per page the count of its last write — one increment and one dict store per
write, all a writer pays (a truncate forgets the pages it drops).  What a reader derived of a page's records while
the count stood at some mark still holds if the page was not written since
(:meth:`HeapFile.written_since`, the one place the stamps are compared):
a scan aggregate's plan keeps its per-page partials that way
(:class:`repro.engine.table.PagePartials`), and they outlive the page's
eviction, since a page read back holds the records it was written out with.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

from ..errors import StorageError
from .buffer import BufferPool
from .page import Page
from .rows import RowId


class HeapFile:
    """Fixed-width record heap with free-slot reuse."""

    def __init__(self, buffer_pool: BufferPool, record_size: int) -> None:
        self._pool = buffer_pool
        self.record_size = record_size
        self._page_nos: list[int] = []
        self._pages_with_space: list[int] = []
        self._num_records = 0
        #: Bumped by every page write: what a reader's mark is a count of.
        self._stamp = 0
        #: Page number -> the stamp of its last write.
        self._written: dict[int, int] = {}

    # ----------------------------------------------------------------- status
    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def page_numbers(self) -> tuple[int, ...]:
        return tuple(self._page_nos)

    @property
    def stamp(self) -> int:
        """The write stamp now: a mark no page is written since."""
        return self._stamp

    def written_since(self, mark: int) -> set[int]:
        """The pages written after the write stamp stood at ``mark``
        (:attr:`stamp`).  The one place a page's stamp is compared (lint
        rule REPRO028)."""
        return {page_no for page_no, stamp in self._written.items() if mark < stamp}

    # -------------------------------------------------------------------- DML
    def insert(self, record: bytes) -> RowId:
        """Append a record, reusing freed slots before growing the file."""
        while self._pages_with_space:
            page_no = self._pages_with_space[-1]
            page = self._pool.fetch(page_no)
            if page.has_space:
                slot_no = page.insert(record)
                self._stamp += 1
                self._written[page_no] = self._stamp
                self._pool.mark_dirty(page_no)
                if not page.has_space:
                    self._pages_with_space.pop()
                self._num_records += 1
                return RowId(page_no, slot_no)
            self._pages_with_space.pop()
        page_no, page = self._pool.create(self.record_size)
        self._page_nos.append(page_no)
        slot_no = page.insert(record)
        self._stamp += 1
        self._written[page_no] = self._stamp
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
        self._stamp += 1
        self._written[row_id.page_no] = self._stamp
        self._pool.mark_dirty(row_id.page_no)
        return before

    def delete(self, row_id: RowId) -> bytes:
        """Free a record's slot; returns the before image."""
        page = self._pool.fetch(row_id.page_no)
        had_space = page.has_space
        before = page.delete(row_id.slot_no)
        self._stamp += 1
        self._written[row_id.page_no] = self._stamp
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
        self._stamp += 1
        self._written[page_no] = self._stamp
        self._pool.mark_dirty(page_no)
        if not page.has_space and page_no in self._pages_with_space:
            self._pages_with_space.remove(page_no)
        self._num_records += 1

    def fetched(self) -> Iterator[tuple[int, Page]]:
        """``(page_no, page)`` page by page, one fetch per page: the one walk
        over the file, which reads nothing of a page itself.

        The page list is snapshotted when this is called, so a concurrent
        append (e.g. a statement inserting into the table it reads, as
        INSERT..SELECT does) does not revisit its own output; each page is
        fetched when the walk reaches it, and what a consumer takes of a
        page, it takes then.
        """
        page_nos = list(self._page_nos)
        # Built of iterators alone, so a walk on it resumes no frame of its own.
        return zip(page_nos, map(self._pool.fetch, page_nos))

    def pages(self) -> Iterator[tuple[int, list[int], list[bytes]]]:
        """Yield ``(page_no, live slot numbers, their records)`` page by
        page, on :meth:`fetched`'s walk, each page's slots snapshotted when
        the page is reached.

        The raw records, read afresh: an index build and :meth:`scan` take
        these; the table's scans take each page's kept decode from
        :meth:`fetched` (:meth:`Page.decoded
        <repro.engine.page.Page.decoded>`).
        """
        for page_no, page in self.fetched():
            yield page_no, *page.records()

    def scan(self) -> Iterator[tuple[RowId, bytes]]:
        """Every live ``(RowId, record)`` in page/slot order."""
        for page_no, slots, records in self.pages():
            yield from zip(map(RowId, repeat(page_no), slots), records)

    def truncate(self) -> int:
        """Drop every page; returns the number of records removed."""
        removed = self._num_records
        for page_no in self._page_nos:
            self._pool.drop(page_no)
        # No page dropped is walked again, and a page number the disk hands
        # out again would be stamped by the insert that fills it.
        self._written = {}
        self._page_nos.clear()
        self._pages_with_space.clear()
        self._num_records = 0
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HeapFile(records={self._num_records}, pages={len(self._page_nos)}, "
            f"record_size={self.record_size})"
        )
