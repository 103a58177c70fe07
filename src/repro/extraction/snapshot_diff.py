"""Differential snapshots (paper §3.1.2; Labio & Garcia-Molina, VLDB '96).

When a source only offers periodic dumps, the delta is computed by
comparing consecutive snapshots.  Three of the LGM algorithm families are
implemented:

* ``naive`` — nested-loop comparison; quadratic, the baseline.
* ``sort_merge`` — sort both snapshots by key, then merge; the classic
  O(n log n) approach.
* ``window`` — a single pass over both files with bounded aging buffers.
  It never sorts and uses constant memory, but a row pair whose positions
  drift apart by more than the window is reported as a delete + insert
  instead of an update.  That output is *non-minimal but still correct*:
  applying it to the old snapshot yields the new one (the property the
  tests verify for all three algorithms).

Like the timestamp method, snapshot differentials only see final states —
intermediate changes between snapshots are lost.

Each public ``diff_*`` entry point runs under an
``extract.snapshot.<algorithm>`` span and records the scanned-vs-emitted
counters on the database's metrics registry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from ..engine.database import Database
from ..engine.snapshots import Snapshot
from ..errors import SnapshotError
from .deltas import ChangeKind, DeltaBatch, DeltaRecord

#: Default aging-buffer size (rows) for the window algorithm.
DEFAULT_WINDOW = 256


def _common_checks(old: Snapshot, new: Snapshot) -> int:
    if old.table_name != new.table_name:
        raise SnapshotError(
            f"cannot diff snapshots of different tables: "
            f"{old.table_name!r} vs {new.table_name!r}"
        )
    if old.schema.signature() != new.schema.signature():
        raise SnapshotError("snapshot schemas diverge; cannot compute a differential")
    key_index = old.schema.primary_key_index()
    if key_index is None:
        raise SnapshotError("differential snapshots require a primary key")
    return key_index


def _observe_diff(
    database: Database,
    algorithm: str,
    old: Snapshot,
    new: Snapshot,
    batch: DeltaBatch,
) -> DeltaBatch:
    """Record the scanned-vs-emitted story for one differential run."""
    metrics = database.metrics
    metrics.counter(
        "extract.snapshot.rows_scanned", algorithm=algorithm
    ).inc(len(old.rows) + len(new.rows))
    metrics.counter(
        "extract.snapshot.rows_emitted", algorithm=algorithm
    ).inc(len(batch.records))
    metrics.counter(
        "extract.snapshot.delta_bytes", algorithm=algorithm
    ).inc(batch.size_bytes)
    return batch


def diff_naive(database: Database, old: Snapshot, new: Snapshot) -> DeltaBatch:
    """Nested-loop differential: compare every old row against every new row."""
    key_index = _common_checks(old, new)
    with database.tracer.span("extract.snapshot.naive", table=old.table_name):
        batch = _diff_naive(database, key_index, old, new)
    return _observe_diff(database, "naive", old, new, batch)


def _diff_naive(
    database: Database, key_index: int, old: Snapshot, new: Snapshot
) -> DeltaBatch:
    """The nested loop's output and its charge: an old row is compared with
    the new rows up to its key's first one (all of them on a miss), then
    every new row is visited once more — one ``row_scan_cpu`` per comparison
    and visit, charged as one run, since nothing else is charged between."""
    batch = DeltaBatch(old.table_name, old.schema)
    first_at: dict[Any, int] = {}
    for position, new_row in enumerate(new.rows):
        first_at.setdefault(new_row[key_index], position)
    compared = len(new.rows)
    matched_new: set[int] = set()
    for old_row in old.rows:
        old_key = old_row[key_index]
        position = first_at.get(old_key)
        if position is None:
            compared += len(new.rows)
            batch.append(DeltaRecord(ChangeKind.DELETE, old_key, before=old_row))
            continue
        compared += position + 1
        matched_new.add(position)
        new_row = new.rows[position]
        if new_row != old_row:
            batch.append(
                DeltaRecord(ChangeKind.UPDATE, old_key, before=old_row, after=new_row)
            )
    for position, new_row in enumerate(new.rows):
        if position not in matched_new:
            batch.append(
                DeltaRecord(ChangeKind.INSERT, new_row[key_index], after=new_row)
            )
    database.clock.advance_each(database.costs.row_scan_cpu, compared)
    return batch


def diff_sort_merge(database: Database, old: Snapshot, new: Snapshot) -> DeltaBatch:
    """Sort both snapshots by key, then merge-compare."""
    key_index = _common_checks(old, new)
    with database.tracer.span("extract.snapshot.sort_merge", table=old.table_name):
        batch = _diff_sort_merge(database, key_index, old, new)
    return _observe_diff(database, "sort_merge", old, new, batch)


def _diff_sort_merge(
    database: Database, key_index: int, old: Snapshot, new: Snapshot
) -> DeltaBatch:
    clock, scan_cpu = database.clock, database.costs.row_scan_cpu
    old_sorted, new_sorted = old.rows_by_key, new.rows_by_key
    # The modelled sort of each file is charged on every diff, even though
    # a snapshot keeps its sorted rows for the next one.
    for rows in (old_sorted, new_sorted):
        n = len(rows)
        if n > 1:
            comparisons = n * max(1, n.bit_length())  # ~ n log2 n
            clock.advance(scan_cpu * comparisons)

    batch = DeltaBatch(old.table_name, old.schema)
    append = batch.append
    n_old, n_new = len(old_sorted), len(new_sorted)
    i = j = pairs = 0
    while i < n_old and j < n_new:
        old_row, new_row = old_sorted[i], new_sorted[j]
        old_key, new_key = old_row[key_index], new_row[key_index]
        if old_key == new_key:
            if old_row != new_row:
                append(DeltaRecord(ChangeKind.UPDATE, old_key,
                                   before=old_row, after=new_row))
            i += 1
            j += 1
            pairs += 1
        elif old_key < new_key:
            append(DeltaRecord(ChangeKind.DELETE, old_key, before=old_row))
            i += 1
        else:
            append(DeltaRecord(ChangeKind.INSERT, new_key, after=new_row))
            j += 1
    for row in old_sorted[i:]:
        append(DeltaRecord(ChangeKind.DELETE, row[key_index], before=row))
    for row in new_sorted[j:]:
        append(DeltaRecord(ChangeKind.INSERT, row[key_index], after=row))
    # One merge step per row, a matched pair sharing one.
    clock.advance_each(scan_cpu, n_old + n_new - pairs)
    return batch


def diff_window(
    database: Database, old: Snapshot, new: Snapshot, window: int = DEFAULT_WINDOW
) -> DeltaBatch:
    """Single-pass differential with bounded aging buffers.

    Both files are consumed in file order.  Unmatched rows wait in a
    bounded buffer; a row aged out of the buffer is reported immediately
    (old rows as deletes, new rows as inserts), so a matching pair further
    apart than ``window`` degrades to delete + insert.
    """
    if window < 1:
        raise SnapshotError(f"window must be at least 1, got {window}")
    key_index = _common_checks(old, new)
    with database.tracer.span("extract.snapshot.window", table=old.table_name):
        batch = _order_pairs(_diff_window(database, key_index, old, new, window))
    return _observe_diff(database, "window", old, new, batch)


def _diff_window(
    database: Database, key_index: int, old: Snapshot, new: Snapshot, window: int
) -> DeltaBatch:
    batch = DeltaBatch(old.table_name, old.schema)

    old_buffer: OrderedDict[Any, tuple[Any, ...]] = OrderedDict()
    new_buffer: OrderedDict[Any, tuple[Any, ...]] = OrderedDict()

    def emit_aged(buffer: OrderedDict, is_old: bool) -> None:
        while len(buffer) > window:
            key, row = buffer.popitem(last=False)
            if is_old:
                batch.append(DeltaRecord(ChangeKind.DELETE, key, before=row))
            else:
                batch.append(DeltaRecord(ChangeKind.INSERT, key, after=row))

    i = j = 0
    while i < len(old.rows) or j < len(new.rows):
        if i < len(old.rows):
            row = old.rows[i]
            i += 1
            key = row[key_index]
            match = new_buffer.pop(key, None)
            if match is not None:
                if match != row:
                    batch.append(
                        DeltaRecord(ChangeKind.UPDATE, key, before=row, after=match)
                    )
            else:
                old_buffer[key] = row
                emit_aged(old_buffer, is_old=True)
        if j < len(new.rows):
            row = new.rows[j]
            j += 1
            key = row[key_index]
            match = old_buffer.pop(key, None)
            if match is not None:
                if match != row:
                    batch.append(
                        DeltaRecord(ChangeKind.UPDATE, key, before=match, after=row)
                    )
            else:
                new_buffer[key] = row
                emit_aged(new_buffer, is_old=False)
    for key, row in old_buffer.items():
        batch.append(DeltaRecord(ChangeKind.DELETE, key, before=row))
    for key, row in new_buffer.items():
        batch.append(DeltaRecord(ChangeKind.INSERT, key, after=row))
    # Every row of both files is visited once; nothing else is charged.
    database.clock.advance_each(
        database.costs.row_scan_cpu, len(old.rows) + len(new.rows)
    )
    return batch


def _order_pairs(batch: DeltaBatch) -> DeltaBatch:
    """Ensure a key's spurious DELETE precedes its spurious INSERT.

    An out-of-window match degrades to a delete + insert pair, and the new
    file's insert can be emitted before the old file's delete.  Keys are
    independent, so the pairs are moved to the end of the batch in
    delete-then-insert order, making the batch directly applicable.
    """
    delete_keys = {r.key for r in batch.records if r.kind is ChangeKind.DELETE}
    insert_keys = {r.key for r in batch.records if r.kind is ChangeKind.INSERT}
    paired = delete_keys & insert_keys
    if not paired:
        return batch
    kept = [r for r in batch.records if r.key not in paired]
    deletes = {r.key: r for r in batch.records
               if r.key in paired and r.kind is ChangeKind.DELETE}
    inserts = {r.key: r for r in batch.records
               if r.key in paired and r.kind is ChangeKind.INSERT}
    for key in deletes:
        kept.append(deletes[key])
        kept.append(inserts[key])
    batch.records = kept
    return batch


#: Registry used by the benchmark harness and the ablation study.
ALGORITHMS: dict[str, Callable[[Database, Snapshot, Snapshot], DeltaBatch]] = {
    "naive": diff_naive,
    "sort_merge": diff_sort_merge,
    "window": diff_window,
}


def diff_snapshots(
    database: Database, old: Snapshot, new: Snapshot, algorithm: str = "sort_merge"
) -> DeltaBatch:
    """Compute the differential with the named algorithm."""
    try:
        function = ALGORITHMS[algorithm]
    except KeyError:
        raise SnapshotError(
            f"unknown snapshot-differential algorithm {algorithm!r}; "
            f"choose from {sorted(ALGORITHMS)}"
        ) from None
    return function(database, old, new)
