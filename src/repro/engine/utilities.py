"""Database dump and load utilities (paper §3, Table 1).

Four utilities, with the cost structure the paper measures:

* **Export** — proprietary page-image dump of a table.  Fast: sequential
  reads, sequential writes of the dump, tiny per-row CPU.  The dump is
  tagged with the producing DBMS product and version; only the matching
  Import can read it ("a very restrictive constraint").
* **Import** — the only reader of Export dumps.  Slow and super-linear: it
  fills internal staging pages and, on every staging overflow, reorganises
  what it has already loaded — "the Import utility fills its own internal
  pages and when the pages overflow they write the data into the database.
  The extra I/O is evident."
* **AsciiDumper** — renders a table (or query result) as a delimited flat
  file, the portable alternative to Export.
* **AsciiLoader** — "loads ASCII data directly into database blocks":
  direct block formatting, no logging, far cheaper per row than Import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..errors import UtilityError
from .database import Database
from .page import Page, slots_per_page
from .rows import decode_row, encode_row, format_ascii, parse_ascii
from .schema import TableSchema, diff_schemas
from .table import InsertMode, Table

#: Export dump format version (proprietary, product-specific).
EXPORT_FORMAT_VERSION = "2.1"


@dataclass
class ExportDump:
    """A proprietary export of one table: raw record images + provenance."""

    product: str
    product_version: str
    format_version: str
    schema: TableSchema
    records: list[bytes] = field(default_factory=list)

    @property
    def num_records(self) -> int:
        return len(self.records)

    @property
    def size_bytes(self) -> int:
        return len(self.records) * self.schema.record_size


@dataclass
class AsciiFile:
    """A delimited flat file: header-free, one row per line."""

    schema: TableSchema
    lines: list[str] = field(default_factory=list)

    @property
    def num_records(self) -> int:
        return len(self.lines)

    @property
    def size_bytes(self) -> int:
        return sum(len(line) + 1 for line in self.lines)


def export_table(database: Database, table_name: str) -> ExportDump:
    """Dump a table with the Export utility (sequential page traffic)."""
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


def import_dump(
    database: Database, dump: ExportDump, table_name: str | None = None
) -> int:
    """Load an Export dump with the Import utility.

    Validates product identity (Export/Import only interoperate within one
    DBMS product and version) and schema compatibility, then re-inserts
    through internal staging pages with the overflow-reorganisation cost
    that makes Import the slow path of Table 1.
    """
    if dump.product != database.product:
        raise UtilityError(
            f"dump was produced by {dump.product!r}; this Import belongs to "
            f"{database.product!r} (Export dumps are proprietary)"
        )
    if dump.product_version != database.product_version:
        raise UtilityError(
            f"dump version {dump.product_version!r} does not match Import "
            f"version {database.product_version!r}"
        )
    if dump.format_version != EXPORT_FORMAT_VERSION:
        raise UtilityError(
            f"dump format {dump.format_version!r} is not readable by this "
            f"Import ({EXPORT_FORMAT_VERSION!r})"
        )
    target_name = table_name if table_name is not None else dump.schema.name
    if not database.has_table(target_name):
        database.create_table(dump.schema.renamed(target_name))
    table = database.table(target_name)
    _require_matching_schema(dump.schema, table.schema, "Import")

    clock, costs = database.clock, database.costs
    clock.advance(costs.file_open)
    txn = database.begin()
    loaded = 0
    record_size = dump.schema.record_size
    for record in dump.records:
        clock.advance(costs.file_read(record_size) + costs.import_row_cpu)
        values = decode_row(dump.schema, record)
        table.insert(txn, values, mode=InsertMode.BULK_INTERNAL, fire_triggers=False)
        loaded += 1
        if loaded % costs.import_staging_rows == 0:
            # Staging overflow: Import reorganises everything loaded so far.
            clock.advance(costs.import_reorg_per_loaded_row * loaded)
    database.commit(txn)
    return loaded


def ascii_dump_rows(
    database: Database, schema: TableSchema, rows: Iterable[Sequence[Any]]
) -> AsciiFile:
    """Write rows to a flat file, charging format CPU and file I/O."""
    clock, costs = database.clock, database.costs
    clock.advance(costs.file_open)
    output = AsciiFile(schema=schema)
    for row in rows:
        line = format_ascii(schema, row)
        clock.advance(costs.ascii_format_row + costs.file_write(len(line) + 1))
        output.lines.append(line)
    clock.advance(costs.file_sync)
    return output


def ascii_dump_table(database: Database, table_name: str) -> AsciiFile:
    """Dump an entire table to a flat file (scan + format + write)."""
    table = database.table(table_name)
    return ascii_dump_rows(
        database, table.schema, (values for _rid, values in table.scan())
    )


def ascii_load(
    database: Database, table_name: str, ascii_file: AsciiFile
) -> int:
    """Load a flat file with the DBMS Loader: direct block writes, no WAL.

    "The DBMS Loader technique loads ASCII data directly into database
    blocks" — rows are formatted straight into pages, bypassing the
    transaction log; indexes (if any) are maintained as the blocks fill.
    """
    table = database.table(table_name)
    _require_matching_schema(ascii_file.schema, table.schema, "Loader")
    clock, costs = database.clock, database.costs
    clock.advance(costs.file_open)
    per_page = slots_per_page(table.schema.record_size)
    rows_in_block = 0
    loaded = 0
    for line in ascii_file.lines:
        clock.advance(costs.file_read(len(line) + 1))
        values = parse_ascii(table.schema, line)
        clock.advance(costs.ascii_parse_row + costs.loader_row_cpu)
        record = encode_row(table.schema, values)
        row_id = table._heap.insert(record)
        for name, index in table._indexes.items():
            index.insert(values[table._key_position[name]], row_id)
        loaded += 1
        rows_in_block += 1
        if rows_in_block >= per_page:
            clock.advance(costs.seq_page_write)
            rows_in_block = 0
    if rows_in_block:
        clock.advance(costs.seq_page_write)
    return loaded


def _require_matching_schema(
    source: TableSchema, target: TableSchema, utility: str
) -> None:
    diff = diff_schemas(source, target)
    if not diff.identical:
        raise UtilityError(
            f"{utility} schema mismatch: missing={diff.missing_columns} "
            f"extra={diff.extra_columns} type_mismatches={diff.type_mismatches}"
        )
