"""Slotted pages for fixed-width records.

Because every table stores fixed-width records (see
:mod:`repro.engine.schema`), the page layout is a simple slot array::

    header:  record_size (u16) | num_slots (u16)
    bitmap:  ceil(num_slots / 8) occupancy bits
    slots:   num_slots x record_size bytes

Deleted slots are reusable.  The in-memory representation keeps decoded slot
bytes in a list for speed; :meth:`Page.to_bytes`/:meth:`Page.from_bytes`
round-trip the on-disk image exactly.

A page is the unit reads work on: :meth:`Page.records` hands over the live
slot numbers and their records as two parallel lists, which is what the
page decoder (:meth:`repro.engine.rows.RecordCodec.page_decoder`) and the
scan's filter take whole.  What is derived from the records is kept until
the page is next written, by one memo (:meth:`Page.kept`): every mutator
bumps a write count and stamps the slot it wrote with it (all a writer
pays), and a reader whose kept entry carries an older count derives afresh
— or, for the decode, patches it: only the records of the slots stamped
since go through the decoder.  The entries live on this object only, so a
page evicted and read back (:meth:`Page.from_bytes`) starts with none.
Two things are kept that way: what a page decoder made of the records
(:meth:`Page.decoded`), and one of those columns sorted
(:meth:`Page.column_values`: what a scan asks before it runs its filter over
the page, :meth:`repro.engine.table.Table.scan`).  A scan aggregate's
per-page partials are kept by its plan instead, against the heap's write
stamp (:class:`repro.engine.table.PagePartials`), so that they go with the
plan and a page that hands its partial back is not read at all.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from itertools import compress
from typing import Any, Callable, Hashable, TypeVar

from ..errors import StorageError
from .disk import PAGE_SIZE
from .rows import PageDecoder

_HEADER = struct.Struct(">HH")

A = TypeVar("A")
K = TypeVar("K", bound=Hashable)
T = TypeVar("T")


def slots_per_page(record_size: int) -> int:
    """How many records of ``record_size`` bytes fit on one page.

    Solves for the largest n with header + ceil(n/8) + n*record_size <= PAGE_SIZE.
    """
    if record_size <= 0:
        raise StorageError(f"record size must be positive, got {record_size}")
    if record_size > PAGE_SIZE - _HEADER.size - 1:
        raise StorageError(f"record size {record_size} exceeds page capacity")
    available = PAGE_SIZE - _HEADER.size
    n = available // record_size
    while _HEADER.size + (n + 7) // 8 + n * record_size > PAGE_SIZE:
        n -= 1
    return n


class Page:
    """A slotted page of fixed-width records."""

    def __init__(self, record_size: int) -> None:
        self.record_size = record_size
        self.capacity = slots_per_page(record_size)
        self._slots: list[bytes | None] = [None] * self.capacity
        self._used = 0
        self._free_hint = 0
        #: Bumped by every mutator; what everything kept is stamped with.
        self._writes = 0
        #: Per slot, the write count of its last write.
        self._stamps = [0] * self.capacity
        #: Key -> (write count, value, record count) of what :meth:`kept`
        #: derived.
        self._kept: dict[Hashable, tuple[int, Any, int]] = {}

    # ----------------------------------------------------------------- status
    @property
    def has_space(self) -> bool:
        return self._used < self.capacity

    # ------------------------------------------------------------------- slots
    def insert(self, record: bytes) -> int:
        """Store a record in the first free slot; return the slot number."""
        self._check_record(record)
        if not self.has_space:
            raise StorageError("page is full")
        self._writes += 1
        for slot_no in range(self._free_hint, self.capacity):
            if self._slots[slot_no] is None:
                self._slots[slot_no] = record
                self._stamps[slot_no] = self._writes
                self._used += 1
                self._free_hint = slot_no + 1
                return slot_no
        for slot_no in range(self._free_hint):
            if self._slots[slot_no] is None:
                self._slots[slot_no] = record
                self._stamps[slot_no] = self._writes
                self._used += 1
                self._free_hint = slot_no + 1
                return slot_no
        raise StorageError("page reported space but no free slot found")

    def insert_at(self, slot_no: int, record: bytes) -> None:
        """Place a record in a specific empty slot (physiological redo)."""
        self._check_record(record)
        if not 0 <= slot_no < self.capacity:
            raise StorageError(f"slot {slot_no} out of range 0..{self.capacity - 1}")
        if self._slots[slot_no] is not None:
            raise StorageError(f"slot {slot_no} is already occupied")
        self._writes += 1
        self._stamps[slot_no] = self._writes
        self._slots[slot_no] = record
        self._used += 1

    def read(self, slot_no: int) -> bytes:
        record = self._slot_or_raise(slot_no)
        return record

    def overwrite(self, slot_no: int, record: bytes) -> None:
        self._check_record(record)
        self._slot_or_raise(slot_no)
        self._writes += 1
        self._stamps[slot_no] = self._writes
        self._slots[slot_no] = record

    def delete(self, slot_no: int) -> bytes:
        """Free a slot; returns the old record (for undo/before images)."""
        record = self._slot_or_raise(slot_no)
        self._writes += 1
        self._stamps[slot_no] = self._writes
        self._slots[slot_no] = None
        self._used -= 1
        if slot_no < self._free_hint:
            self._free_hint = slot_no
        return record

    def records(self) -> tuple[list[int], list[bytes]]:
        """The slot numbers of the live records and, beside them, the
        records — two parallel lists in slot order.

        New lists on every call, so the caller may change the page while it
        works on them; nothing is kept (what a decoder makes of them is,
        by :meth:`decoded`).  (A record is never empty, so a slot is live
        exactly when it is true.)
        """
        slots = self._slots
        return list(compress(range(self.capacity), slots)), list(filter(None, slots))

    def kept(
        self,
        key: K,
        derive: Callable[[K, A], T],
        argument: A,
        patch: Callable[[K, A, T, list[int]], T] | None = None,
    ) -> T:
        """``derive(key, argument)``, a value derived from this page's
        records, kept under ``key`` until the page is next written.

        The value is stamped with the write count, and handed out again while
        it is unchanged; the first read after a write derives afresh and
        replaces it, so a key holds one value at a time.  ``derive`` must
        read nothing but the records (and what the key and ``argument``
        fix), and nobody may change what it returns.  This is the one place
        the write count and the slots' stamps are compared (lint rule
        REPRO028).

        With ``patch``, a value that is stale is patched
        rather than derived afresh, unless the writes since it was stamped
        number more than one in eight of the records it was derived from
        (each write writes one slot; a slot written twice counts twice):
        ``patch(key, argument, old, written)`` is handed the slots written
        since, ascending, and returns the new value without changing
        ``old``.  Past one in eight the patch costs more than it saves: a
        write of a 100-row range rewrites most of a page.  The writes are
        counted, not the slots they wrote, so that a page decoded whole is
        not first searched for what was written.
        """
        entry = self._kept.get(key)
        if entry is not None:
            if entry[0] == self._writes:
                return entry[1]
            if patch is not None and 8 * (self._writes - entry[0]) <= entry[2]:
                # Each write since wrote one slot, so they bound the rows
                # written; a slot is found by its write's count, unless a
                # later write took it over.
                since, stamps = entry[0], self._stamps
                written = sorted(
                    stamps.index(count)
                    for count in range(since + 1, self._writes + 1)
                    if count in stamps
                )
                value = patch(key, argument, entry[1], written)
                self._kept[key] = (self._writes, value, self._used)
                return value
        writes = self._writes
        value = derive(key, argument)
        self._kept[key] = (writes, value, self._used)
        return value

    def decoded(self, decode: PageDecoder) -> tuple[list[int], list[tuple[Any, ...]]]:
        """The live slot numbers and ``decode`` of their records, kept per
        decoder (:meth:`kept`), and after a write patched: only the records
        written since go through ``decode``, in one call.

        Neither list is changed once handed out — by the page or by the
        caller — so the caller may change the page while it works on them,
        as with :meth:`records`: a patch splices into copies.
        """
        return self.kept(decode, _decode, self, _patch)

    def column_values(self, decode: PageDecoder, at: int) -> list[Any]:
        """The values at position ``at`` of :meth:`decoded`'s rows, ascending,
        without NULL and NaN (which satisfy no comparison), kept per
        ``(decode, at)`` (:meth:`kept`), so sorted once per write of the page.
        """
        return self.kept((decode, at), _sorted, self)

    # ------------------------------------------------------------ serialization
    def to_bytes(self) -> bytes:
        bitmap = bytearray((self.capacity + 7) // 8)
        body = bytearray(self.capacity * self.record_size)
        for slot_no, record in enumerate(self._slots):
            if record is not None:
                bitmap[slot_no // 8] |= 1 << (slot_no % 8)
                start = slot_no * self.record_size
                body[start : start + self.record_size] = record
        image = _HEADER.pack(self.record_size, self.capacity) + bytes(bitmap) + bytes(body)
        return image.ljust(PAGE_SIZE, b"\x00")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Page":
        if len(data) != PAGE_SIZE:
            raise StorageError(f"page image must be {PAGE_SIZE} bytes, got {len(data)}")
        record_size, capacity = _HEADER.unpack_from(data, 0)
        if record_size == 0:
            raise StorageError("page image has zero record size (unformatted page?)")
        page = cls(record_size)
        if capacity != page.capacity:
            raise StorageError(
                f"page image capacity {capacity} does not match computed "
                f"{page.capacity} for record size {record_size}"
            )
        bitmap_offset = _HEADER.size
        bitmap_len = (capacity + 7) // 8
        body_offset = bitmap_offset + bitmap_len
        for slot_no in range(capacity):
            if data[bitmap_offset + slot_no // 8] & (1 << (slot_no % 8)):
                start = body_offset + slot_no * record_size
                page._slots[slot_no] = data[start : start + record_size]
                page._used += 1
        return page

    # -------------------------------------------------------------------- misc
    def _check_record(self, record: bytes) -> None:
        if len(record) != self.record_size:
            raise StorageError(
                f"record of {len(record)} bytes does not fit page record size "
                f"{self.record_size}"
            )

    def _slot_or_raise(self, slot_no: int) -> bytes:
        if not 0 <= slot_no < self.capacity:
            raise StorageError(f"slot {slot_no} out of range 0..{self.capacity - 1}")
        record = self._slots[slot_no]
        if record is None:
            raise StorageError(f"slot {slot_no} is empty")
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Page(record_size={self.record_size}, used={self._used}/{self.capacity})"


# What a page keeps (:meth:`Page.kept`), each derived from the page given.
def _decode(
    decode: PageDecoder, page: Page
) -> tuple[list[int], list[tuple[Any, ...]]]:
    slots, records = page.records()
    return slots, decode(records)


def _patch(
    decode: PageDecoder,
    page: Page,
    old: tuple[list[int], list[tuple[Any, ...]]],
    written: list[int],
) -> tuple[list[int], list[tuple[Any, ...]]]:
    """``old``, the page's decode before the ``written`` slots were written,
    made its decode now: the live records among them decoded in one call, and
    each spliced into copies of the lists at its slot's place — replacing
    the slot's row, or joining the lists where the slot was free; a slot
    freed since leaves them."""
    slots, rows = list(old[0]), list(old[1])
    records = page._slots
    live = [slot for slot in written if records[slot] is not None]
    fresh = dict(zip(live, decode([records[slot] for slot in live])))
    for slot in written:
        at = bisect_left(slots, slot)
        held = at < len(slots) and slots[at] == slot
        row = fresh.get(slot)
        if row is None:
            if held:
                del slots[at], rows[at]
        elif held:
            rows[at] = row
        else:
            slots.insert(at, slot)
            rows.insert(at, row)
    return slots, rows


def _sorted(key: tuple[PageDecoder, int], page: Page) -> list[Any]:
    decode, at = key
    rows = page.decoded(decode)[1]
    values = [v for row in rows if (v := row[at]) is not None and v == v]
    values.sort()
    return values
