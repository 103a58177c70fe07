"""The reference scan: the record-at-a-time loop ``Table.scan`` was until
reads became page-at-a-time, kept as the oracle the page-wise scan and the
values-only read are compared with (``tests/test_property_scan.py``).

It is the deleted loop as it stood: per live record one ``clock.advance`` of
the scan CPU, one count, one single-record decode, one call of a *per-row*
``keep`` and — only for a kept row — one ``RowId`` and one ``yield``.  What
it walks is the heap's page snapshot (``HeapFile.pages``), so it sees what a
scan started at the same moment sees.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.engine.rows import RowId
from repro.engine.table import Table


def scan(
    table: Table,
    columns: Sequence[int] | None = None,
    keep: Callable[[tuple[Any, ...]], Any] | None = None,
) -> Iterator[tuple[RowId, tuple[Any, ...]]]:
    """``Table.scan`` as it was, with ``keep`` called once per record."""
    advance = table._clock.advance
    scan_cpu = table._costs.row_scan_cpu
    codec = table.schema.codec
    decode = codec.decode if columns is None else codec.decoder(tuple(columns))
    scanned = 0
    try:
        for page_no, slots, records in table._heap.pages():
            for slot_no, record in zip(slots, records):
                advance(scan_cpu)
                scanned += 1
                values = decode(record)
                if keep is None or keep(values):
                    yield RowId(page_no, slot_no), values
    finally:
        table._m_rows_scanned.inc(scanned)


def rowwise(
    keep: Callable[[tuple[Any, ...]], Any],
) -> Callable[[Iterable[tuple[Any, ...]]], list[int]]:
    """A per-row predicate as the page filter a scan takes: the positions of
    the rows it accepts, asked one row at a time and in order."""
    return lambda rows: [at for at, row in enumerate(rows) if keep(row)]
