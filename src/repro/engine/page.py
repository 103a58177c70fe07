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
scan's filter take whole.  :meth:`Page.decoded` keeps what a page decoder
made of them until the page is next written: every mutator bumps a write
count (all a writer pays), and a reader whose kept entry carries an older
count decodes afresh.  The entries live on this object only, so a page
evicted and read back (:meth:`Page.from_bytes`) starts with none.
"""

from __future__ import annotations

import struct
from itertools import compress
from typing import Any

from ..errors import StorageError
from .disk import PAGE_SIZE
from .rows import PageDecoder

_HEADER = struct.Struct(">HH")


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
        #: Bumped by every mutator; what a kept decode is stamped with.
        self._writes = 0
        #: Page decoder -> (write count, live slots, rows) of its last read.
        self._decoded: dict[PageDecoder, tuple[int, list[int], list[Any]]] = {}

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
                self._used += 1
                self._free_hint = slot_no + 1
                return slot_no
        for slot_no in range(self._free_hint):
            if self._slots[slot_no] is None:
                self._slots[slot_no] = record
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
        self._slots[slot_no] = record
        self._used += 1

    def read(self, slot_no: int) -> bytes:
        record = self._slot_or_raise(slot_no)
        return record

    def overwrite(self, slot_no: int, record: bytes) -> None:
        self._check_record(record)
        self._slot_or_raise(slot_no)
        self._writes += 1
        self._slots[slot_no] = record

    def delete(self, slot_no: int) -> bytes:
        """Free a slot; returns the old record (for undo/before images)."""
        record = self._slot_or_raise(slot_no)
        self._writes += 1
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

    def decoded(self, decode: PageDecoder) -> tuple[list[int], list[tuple[Any, ...]]]:
        """The live slot numbers and ``decode`` of their records, kept.

        The pair is kept per decoder, stamped with the page's write count,
        and handed out again until a mutator bumps the count; the first read
        after that decodes afresh and replaces it.  Neither list is changed
        once handed out — by the page or by the caller — so the caller may
        change the page while it works on them, as with :meth:`records`.
        """
        kept = self._decoded.get(decode)
        if kept is not None and kept[0] == self._writes:
            return kept[1], kept[2]
        slots, records = self.records()
        rows = decode(records)
        self._decoded[decode] = (self._writes, slots, rows)
        return slots, rows

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
