"""The reference extraction passes: the record-at-a-time loops the §3
extraction passes were until they charged the clock in runs, kept as the
oracle the run-charging passes are compared with
(``tests/test_property_extraction.py``).

Each is the deleted loop as it stood: ``take_snapshot`` and
``ascii_dump_table`` over ``Table.scan`` (one scan charge per record as the
generator reaches it) with one ``advance`` per file write and per full output
page; ``export_table`` with one ``advance`` per exported record; the three
differentials with one ``advance`` of ``row_scan_cpu`` per comparison or
merge step; the log scan with one ``advance`` per record read, a decode
closure per record and the committed set of the segments it read (it holds
nothing over between passes).  The parts the run-charging passes share with
them — the checks, the span, the counters and the pair ordering of the window
algorithm — are called from the module, not copied.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.engine.database import Database
from repro.engine.page import Page, slots_per_page
from repro.engine.rows import decode_row, format_ascii
from repro.engine.snapshots import Snapshot
from repro.engine.utilities import EXPORT_FORMAT_VERSION, AsciiFile, ExportDump
from repro.engine.wal import LogRecordKind, committed_txn_ids, require_compatible
from repro.errors import LogError
from repro.extraction import snapshot_diff
from repro.extraction.deltas import ChangeKind, DeltaBatch, DeltaRecord
from repro.extraction.logscan import LogExtraction


def take_snapshot(database: Database, table_name: str) -> Snapshot:
    """``take_snapshot`` as it was: per record the scan, the file write and,
    every ``per_page``-th record, the output page write."""
    table = database.table(table_name)
    clock, costs = database.clock, database.costs
    clock.advance(costs.file_open)
    snapshot = Snapshot(table_name=table_name, schema=table.schema, taken_at=clock.now)
    record_size = table.schema.record_size
    per_page = slots_per_page(record_size)
    rows_in_output_page = 0
    for _row_id, values in table.scan():
        snapshot.rows.append(values)
        clock.advance(costs.file_write(record_size))
        rows_in_output_page += 1
        if rows_in_output_page >= per_page:
            clock.advance(costs.seq_page_write)
            rows_in_output_page = 0
    if rows_in_output_page:
        clock.advance(costs.seq_page_write)
    clock.advance(costs.file_sync)
    return snapshot


def export_table(database: Database, table_name: str) -> ExportDump:
    """``export_table`` as it was: one ``advance`` per exported record."""
    table = database.table(table_name)
    clock, costs = database.clock, database.costs
    clock.advance(costs.file_open)
    dump = ExportDump(
        product=database.product,
        product_version=database.product_version,
        format_version=EXPORT_FORMAT_VERSION,
        schema=table.schema,
    )
    per_page = slots_per_page(table.schema.record_size)
    rows_in_output_page = 0
    for page_no in table._heap.page_numbers:
        database.buffer_pool.flush_page(page_no)
        data = database.disk.read_page(page_no, sequential=True)
        page = Page.from_bytes(data)
        for record in page.records()[1]:
            clock.advance(costs.export_row_cpu)
            dump.records.append(record)
            rows_in_output_page += 1
            if rows_in_output_page >= per_page:
                clock.advance(costs.seq_page_write)
                rows_in_output_page = 0
    if rows_in_output_page:
        clock.advance(costs.seq_page_write)
    return dump


def ascii_dump_table(database: Database, table_name: str) -> AsciiFile:
    """``ascii_dump_table`` as it was: ``Table.scan`` feeding a per-row
    format-and-write loop."""
    table = database.table(table_name)
    clock, costs = database.clock, database.costs
    clock.advance(costs.file_open)
    output = AsciiFile(schema=table.schema)
    for _row_id, row in table.scan():
        line = format_ascii(table.schema, row)
        clock.advance(costs.ascii_format_row + costs.file_write(len(line) + 1))
        output.lines.append(line)
    clock.advance(costs.file_sync)
    return output


def diff_naive(database: Database, old: Snapshot, new: Snapshot) -> DeltaBatch:
    key_index = snapshot_diff._common_checks(old, new)
    with database.tracer.span("extract.snapshot.naive", table=old.table_name):
        batch = _diff_naive(database, key_index, old, new)
    return snapshot_diff._observe_diff(database, "naive", old, new, batch)


def _diff_naive(
    database: Database, key_index: int, old: Snapshot, new: Snapshot
) -> DeltaBatch:
    clock, costs = database.clock, database.costs
    batch = DeltaBatch(old.table_name, old.schema)
    matched_new: set[int] = set()
    for old_row in old.rows:
        old_key = old_row[key_index]
        found = None
        for position, new_row in enumerate(new.rows):
            clock.advance(costs.row_scan_cpu)
            if new_row[key_index] == old_key:
                found = (position, new_row)
                break
        if found is None:
            batch.append(DeltaRecord(ChangeKind.DELETE, old_key, before=old_row))
        else:
            position, new_row = found
            matched_new.add(position)
            if new_row != old_row:
                batch.append(
                    DeltaRecord(ChangeKind.UPDATE, old_key, before=old_row, after=new_row)
                )
    for position, new_row in enumerate(new.rows):
        clock.advance(costs.row_scan_cpu)
        if position not in matched_new:
            batch.append(
                DeltaRecord(ChangeKind.INSERT, new_row[key_index], after=new_row)
            )
    return batch


def diff_sort_merge(database: Database, old: Snapshot, new: Snapshot) -> DeltaBatch:
    key_index = snapshot_diff._common_checks(old, new)
    with database.tracer.span("extract.snapshot.sort_merge", table=old.table_name):
        batch = _diff_sort_merge(database, key_index, old, new)
    return snapshot_diff._observe_diff(database, "sort_merge", old, new, batch)


def _diff_sort_merge(
    database: Database, key_index: int, old: Snapshot, new: Snapshot
) -> DeltaBatch:
    clock, costs = database.clock, database.costs

    def sort_cost(rows: list) -> None:
        n = len(rows)
        if n > 1:
            comparisons = n * max(1, n.bit_length())  # ~ n log2 n
            clock.advance(costs.row_scan_cpu * comparisons)

    old_sorted = sorted(old.rows, key=lambda row: row[key_index])
    sort_cost(old_sorted)
    new_sorted = sorted(new.rows, key=lambda row: row[key_index])
    sort_cost(new_sorted)

    batch = DeltaBatch(old.table_name, old.schema)
    i = j = 0
    while i < len(old_sorted) or j < len(new_sorted):
        clock.advance(costs.row_scan_cpu)
        if j >= len(new_sorted):
            row = old_sorted[i]
            batch.append(DeltaRecord(ChangeKind.DELETE, row[key_index], before=row))
            i += 1
        elif i >= len(old_sorted):
            row = new_sorted[j]
            batch.append(DeltaRecord(ChangeKind.INSERT, row[key_index], after=row))
            j += 1
        else:
            old_row, new_row = old_sorted[i], new_sorted[j]
            old_key, new_key = old_row[key_index], new_row[key_index]
            if old_key == new_key:
                if old_row != new_row:
                    batch.append(
                        DeltaRecord(ChangeKind.UPDATE, old_key,
                                    before=old_row, after=new_row)
                    )
                i += 1
                j += 1
            elif old_key < new_key:
                batch.append(DeltaRecord(ChangeKind.DELETE, old_key, before=old_row))
                i += 1
            else:
                batch.append(DeltaRecord(ChangeKind.INSERT, new_key, after=new_row))
                j += 1
    return batch


def diff_window(
    database: Database, old: Snapshot, new: Snapshot,
    window: int = snapshot_diff.DEFAULT_WINDOW,
) -> DeltaBatch:
    key_index = snapshot_diff._common_checks(old, new)
    with database.tracer.span("extract.snapshot.window", table=old.table_name):
        batch = snapshot_diff._order_pairs(
            _diff_window(database, key_index, old, new, window)
        )
    return snapshot_diff._observe_diff(database, "window", old, new, batch)


def _diff_window(
    database: Database, key_index: int, old: Snapshot, new: Snapshot, window: int
) -> DeltaBatch:
    clock, costs = database.clock, database.costs
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
            clock.advance(costs.row_scan_cpu)
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
            clock.advance(costs.row_scan_cpu)
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
    return batch


def extract_log(database: Database, tables: set[str] | None) -> LogExtraction:
    """``LogExtractor.extract`` as it was: one ``advance`` per record read,
    a schema look-up and a decode closure per decoded record."""
    database.checkpoint()
    segments = database.log.drain_archive()
    result = LogExtraction(segments=segments)
    costs, clock = database.costs, database.clock
    all_records = [r for segment in segments for r in segment.records]
    for segment in segments:
        require_compatible(segment, database.product, database.product_version)
    committed = committed_txn_ids(all_records)
    with database.tracer.span("extract.log.scan", segments=len(segments)):
        for record in all_records:
            result.records_scanned += 1
            clock.advance(costs.file_read(record.payload_bytes))
            if not record.is_data_change():
                continue
            if tables is not None and record.table not in tables:
                continue
            if record.txn_id not in committed:
                result.uncommitted_skipped += 1
                continue
            batch = result.batches.get(record.table)
            if batch is None:
                if not database.has_table(record.table):
                    raise LogError(
                        f"log references table {record.table!r} with no "
                        "catalog entry; cannot decode its images"
                    )
                batch = DeltaBatch(record.table, database.table(record.table).schema)
                result.batches[record.table] = batch
            batch.append(_decode(record, batch))
            result.changes_decoded += 1
    metrics = database.metrics
    metrics.counter("extract.log.records_scanned").inc(result.records_scanned)
    metrics.counter("extract.log.rows_emitted").inc(result.changes_decoded)
    metrics.counter("extract.log.delta_bytes").inc(
        sum(batch.size_bytes for batch in result.batches.values())
    )
    return result


def _decode(record, batch: DeltaBatch) -> DeltaRecord:
    schema = batch.schema
    key_index = schema.primary_key_index()
    before = decode_row(schema, record.before) if record.before else None
    after = decode_row(schema, record.after) if record.after else None

    def key_of(values):
        if values is None:
            raise LogError(f"record at LSN {record.lsn} is missing its image")
        return values[key_index] if key_index is not None else record.row_id

    if record.kind is LogRecordKind.INSERT:
        return DeltaRecord(
            ChangeKind.INSERT, key_of(after), after=after, txn_id=record.txn_id,
            sequence=record.lsn,
        )
    if record.kind is LogRecordKind.DELETE:
        return DeltaRecord(
            ChangeKind.DELETE, key_of(before), before=before, txn_id=record.txn_id,
            sequence=record.lsn,
        )
    return DeltaRecord(
        ChangeKind.UPDATE, key_of(before), before=before, after=after,
        txn_id=record.txn_id, sequence=record.lsn,
    )
