"""Tests for pages, the disk manager, the buffer pool and heap files."""

import pytest

from repro.clock import VirtualClock
from repro.engine.buffer import BufferPool
from repro.engine.costs import DEFAULT_COST_MODEL
from repro.engine.disk import PAGE_SIZE, DiskManager
from repro.engine.heap import HeapFile
from repro.engine.page import Page, slots_per_page
from repro.engine.rows import RowId
from repro.errors import StorageError
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def disk(clock):
    return DiskManager(clock, DEFAULT_COST_MODEL)


@pytest.fixture
def pool(disk, clock):
    return BufferPool(disk, clock, DEFAULT_COST_MODEL, capacity=8)


class TestPage:
    def test_slots_per_page_bounds(self):
        n = slots_per_page(100)
        assert n > 0
        # header + bitmap + records must fit.
        assert 4 + (n + 7) // 8 + n * 100 <= PAGE_SIZE

    def test_insert_read_delete(self):
        page = Page(16)
        slot = page.insert(b"x" * 16)
        assert page.read(slot) == b"x" * 16
        assert page.delete(slot) == b"x" * 16
        with pytest.raises(StorageError):
            page.read(slot)

    def test_slot_reuse_after_delete(self):
        page = Page(16)
        first = page.insert(b"a" * 16)
        page.insert(b"b" * 16)
        page.delete(first)
        assert page.insert(b"c" * 16) == first

    def test_fills_to_capacity(self):
        page = Page(16)
        for _ in range(page.capacity):
            page.insert(b"r" * 16)
        assert not page.has_space
        with pytest.raises(StorageError):
            page.insert(b"r" * 16)

    def test_wrong_record_size(self):
        with pytest.raises(StorageError):
            Page(16).insert(b"short")

    def test_serialization_roundtrip(self):
        page = Page(16)
        slots = [page.insert(bytes([i]) * 16) for i in range(5)]
        page.delete(slots[2])
        restored = Page.from_bytes(page.to_bytes())
        assert restored._used == 4
        assert restored.records() == page.records()
        assert restored.records()[0] == [0, 1, 3, 4]

    def test_insert_at_specific_slot(self):
        page = Page(16)
        page.insert_at(3, b"z" * 16)
        assert page.read(3) == b"z" * 16
        with pytest.raises(StorageError):
            page.insert_at(3, b"y" * 16)

    def test_from_bytes_rejects_garbage(self):
        with pytest.raises(StorageError):
            Page.from_bytes(bytes(PAGE_SIZE))  # zero record size

    def test_oversized_record_rejected(self):
        with pytest.raises(StorageError):
            slots_per_page(PAGE_SIZE)


class TestDiskManager:
    def test_allocate_sequential_numbers(self, disk):
        assert disk.allocate_page() == 0
        assert disk.allocate_page() == 1

    def test_write_read_roundtrip(self, disk):
        page_no = disk.allocate_page()
        data = b"\x07" * PAGE_SIZE
        disk.write_page(page_no, data)
        assert disk.read_page(page_no) == data

    def test_read_unallocated(self, disk):
        with pytest.raises(StorageError):
            disk.read_page(99)

    def test_write_wrong_size(self, disk):
        page_no = disk.allocate_page()
        with pytest.raises(StorageError):
            disk.write_page(page_no, b"short")

    def test_random_io_costs_more_than_sequential(self, disk, clock):
        page_no = disk.allocate_page()
        disk.write_page(page_no, bytes(PAGE_SIZE))
        before = clock.now
        disk.read_page(page_no, sequential=True)
        sequential = clock.now - before
        before = clock.now
        disk.read_page(page_no, sequential=False)
        assert clock.now - before > sequential


class TestBufferPool:
    def test_hit_cheaper_than_miss(self, pool, clock):
        page_no, _ = pool.create(16)
        pool.flush_all()
        # Force eviction so the next fetch is a miss.
        for _ in range(10):
            pool.create(16)
        before = clock.now
        pool.fetch(page_no)
        miss_cost = clock.now - before
        before = clock.now
        pool.fetch(page_no)
        hit_cost = clock.now - before
        assert pool.hits >= 1 and pool.misses >= 1
        assert hit_cost < miss_cost

    def test_dirty_eviction_writes_back(self, pool, disk):
        page_no, page = pool.create(16)
        page.insert(b"v" * 16)
        pool.mark_dirty(page_no)
        for _ in range(12):  # evict it
            pool.create(16)
        restored = Page.from_bytes(disk.read_page(page_no, sequential=True))
        assert restored._used == 1

    def test_flush_all_clears_dirty(self, pool):
        page_no, _ = pool.create(16)
        assert pool.flush_all() >= 1
        assert pool.flush_all() == 0
        del page_no

    def test_capacity_enforced(self, disk, clock):
        registry = MetricsRegistry()
        pool = BufferPool(disk, clock, DEFAULT_COST_MODEL, capacity=8, metrics=registry)
        for _ in range(50):
            pool.create(16)
        assert registry.value("engine.buffer.eviction") >= 42

    def test_minimum_capacity(self, disk, clock):
        with pytest.raises(ValueError):
            BufferPool(disk, clock, DEFAULT_COST_MODEL, capacity=1)


class TestHeapFile:
    def test_insert_and_read(self, pool):
        heap = HeapFile(pool, 16)
        rid = heap.insert(b"a" * 16)
        assert heap.read(rid) == b"a" * 16
        assert heap.num_records == 1

    def test_scan_in_order(self, pool):
        heap = HeapFile(pool, 16)
        rids = [heap.insert(bytes([i]) * 16) for i in range(10)]
        scanned = [rid for rid, _rec in heap.scan()]
        assert scanned == rids

    def test_delete_frees_slot_for_reuse(self, pool):
        heap = HeapFile(pool, 16)
        rid = heap.insert(b"a" * 16)
        heap.insert(b"b" * 16)
        heap.delete(rid)
        assert heap.num_records == 1
        new_rid = heap.insert(b"c" * 16)
        assert new_rid == rid  # slot reuse, no growth

    def test_overwrite_returns_before_image(self, pool):
        heap = HeapFile(pool, 16)
        rid = heap.insert(b"a" * 16)
        before = heap.overwrite(rid, b"b" * 16)
        assert before == b"a" * 16
        assert heap.read(rid) == b"b" * 16

    def test_grows_across_pages(self, pool):
        heap = HeapFile(pool, 2000)  # 4 records per page
        for i in range(10):
            heap.insert(bytes([i]) * 2000)
        assert len(heap.page_numbers) >= 3
        assert heap.num_records == 10

    def test_truncate(self, pool):
        heap = HeapFile(pool, 16)
        for i in range(5):
            heap.insert(bytes([i]) * 16)
        assert heap.truncate() == 5
        assert heap.num_records == 0
        assert list(heap.scan()) == []

    def test_place_at_logged_address(self, pool):
        heap = HeapFile(pool, 16)
        heap.place(RowId(0, 0), b"a" * 16)
        heap.place(RowId(0, 1), b"b" * 16)
        assert heap.read(RowId(0, 1)) == b"b" * 16
        assert heap.num_records == 2
