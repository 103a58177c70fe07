"""Tables: DML with index maintenance, triggers, WAL and undo.

This module is where the paper's measured effects are produced:

* every insert pays row CPU + index maintenance + a WAL append — the base
  cost that Figure 2's trigger overhead is measured against;
* row triggers fire in the same transaction as the statement and their own
  changes are logged and undoable;
* bulk insert paths (client array insert, fully-internal INSERT..SELECT)
  pay reduced per-row CPU, which is why writing a delta *table* during
  timestamp extraction is cheaper per row than OLTP inserts but still far
  more expensive than writing a flat file (Table 2).

Each mutation is written once, as a per-row core (``_insert_row``,
``_update_row``, ``_delete_row``) taking the two things its callers differ
in: the CPU charge for the row and where its WAL record goes.  The row
entries append straight to :meth:`LogManager.append`; the ``*_batch`` entries
(the columnar apply path) charge the columnar factor and group-append after
the last row.  Row DML and batch DML are therefore the same mutation by
construction — validation, unique checks, index maintenance, triggers,
undo and WAL payloads cannot diverge (lint rule REPRO012).  A core admits
its row once (:meth:`TableSchema.admit`: the canonical values and the record
in one pass), and the timestamp stamp is written into that record in place
(:meth:`RecordCodec.patch`), not encoded again.  Every entry refuses a
transaction that is not ACTIVE before it charges or changes anything.

Reads work a heap page at a time, on one walk (``Table._pages``): a page's
records are decoded together (once per write of the page, not per read: the
page keeps the decode), the statement's filter runs once over them — or not
at all, when the statement's page bounds show it keeps none of them — and the
scan CPU is charged in runs of records — the same additions, in the same
order relative to every other charge, as one ``advance`` per record.
:meth:`Table.scan` yields ``(RowId, values)`` with the clock exact at every
row, for consumers that charge between rows, stop early or need the ids
(DML); :meth:`Table.scan_values` is the values-only read of everyone else
(SELECT, the hash-join build side, state comparisons); and
:meth:`Table.scan_pages` hands a dump each page's rows uncharged, for it to
charge every record's scan inside its own cycle of charges
(``take_snapshot``, ``ascii_dump_table``).
"""

from __future__ import annotations

import enum
from itertools import chain
from operator import length_hint
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..clock import VirtualClock
from ..errors import CatalogError, ConstraintError, SchemaError
from ..obs.metrics import MetricsLike, MetricsRegistry
from ..scope import Scope
from .buffer import BufferPool
from .costs import CostModel
from .heap import HeapFile
from .index import BTreeIndex, span
from .page import Page
from .rows import PageDecoder, RowId, decode_row
from .schema import TableSchema
from .transactions import Transaction
from .triggers import TriggerContext, TriggerEvent, TriggerSet, TriggerTiming
from .wal import LogManager, LogRecordKind

#: A scan's filter: called with an iterable over one page's rows (the narrow
#: value tuples, in slot order), returns the ascending positions it keeps.
#: It must take the rows one at a time and in order — that is how a filter
#: that raises says which record it raised on.
PageFilter = Callable[[Iterable[tuple[Any, ...]]], Sequence[int]]

#: A scan's page bound: ``(at, low, high, include_low, include_high)`` —
#: every row the scan's filter keeps has, at column ``at`` of the table, a
#: value inside this interval (``None``: that side is open; the index's
#: order, :func:`~repro.engine.index.span`).  A page with no such value
#: keeps nothing, so the filter is not run over it.
PageBound = tuple[int, Any, Any, bool, bool]

#: Where a mutation's WAL record goes: called with the positional arguments
#: of :meth:`LogManager.append` (kind, txn id, table, row id, before, after).
LogSink = Callable[..., Any]


def _excluded(page: Page, decode: PageDecoder, bounds: Sequence[PageBound]) -> bool:
    """Whether one of ``bounds`` (``at`` a position of the decoded rows) has
    none of the page's values inside it."""
    for at, low, high, include_low, include_high in bounds:
        values = page.column_values(decode, at)
        if not span(values, low, high, include_low, include_high):
            return True
    return False


def _revert(undo: list[tuple[Any, ...]]) -> None:
    """Run the ``(step, *arguments)`` of a failed mutation, last first."""
    for step, *arguments in reversed(undo):
        step(*arguments)


class InsertMode(enum.Enum):
    """How rows arrive, with the per-row CPU factor each path pays.

    STATEMENT      one client statement per row (OLTP inserts; factor 1.0)
    BULK_CLIENT    client-side array insert (Op-Delta log store; factor ~0.83)
    BULK_INTERNAL  fully internal INSERT..SELECT / utility fill (factor ~0.3)
    """

    STATEMENT = "statement"
    BULK_CLIENT = "bulk_client"
    BULK_INTERNAL = "bulk_internal"


class Table:
    """A heap table with optional indexes, triggers and auto timestamps."""

    def __init__(
        self,
        schema: TableSchema,
        buffer_pool: BufferPool,
        log: LogManager,
        clock: VirtualClock,
        costs: CostModel,
        auto_timestamp: bool = False,
        metrics: MetricsLike | None = None,
    ) -> None:
        self.schema = schema
        self.name = schema.name
        self._pool = buffer_pool
        self._log = log
        self._clock = clock
        self._costs = costs
        if metrics is None:
            metrics = MetricsRegistry()
        self._metrics = metrics
        self._m_rows_scanned = metrics.counter("engine.table.rows_scanned")
        self._heap = HeapFile(buffer_pool, schema.record_size)
        self._indexes: dict[str, BTreeIndex] = {}
        #: Stands for the current index list (and its index objects): what
        #: a statement's shape decided about reading this table is filed
        #: under it, and CREATE INDEX and TRUNCATE replace it.
        self.version = Scope()
        #: Index name -> position of its key column, resolved at creation.
        self._key_position: dict[str, int] = {}
        self.triggers = TriggerSet(clock, costs)
        self.auto_timestamp = auto_timestamp and schema.timestamp_column is not None
        self._ts_index = (
            schema.column_index(schema.timestamp_column)
            if schema.timestamp_column is not None
            else None
        )

    # ----------------------------------------------------------------- status
    @property
    def num_rows(self) -> int:
        return self._heap.num_records

    @property
    def size_bytes(self) -> int:
        return self._heap.num_records * self.schema.record_size

    # ----------------------------------------------------------------- indexes
    def create_index(
        self, name: str, column: str, unique: bool = False, kind: str = "btree"
    ) -> BTreeIndex:
        """Create an index and build it from the existing rows.

        The B-tree is the one index kind.  ``kind`` names it and nothing
        else: the host benchmark's scenarios pass ``kind="btree"``, so the
        parameter stays until they stop; any other value is refused."""
        if name in self._indexes:
            raise CatalogError(f"index {name!r} already exists on {self.name!r}")
        if kind != "btree":
            raise CatalogError(f"unknown index kind {kind!r}")
        position = self.schema.column_index(column)  # raises on unknown column
        index = BTreeIndex(name, column, self._clock, self._costs, unique, self._metrics)
        keys_of = self.schema.codec.page_decoder((position,))
        for page_no, slots, records in self._heap.pages():
            for slot_no, (key,) in zip(slots, keys_of(records)):
                index.insert(key, RowId(page_no, slot_no))
        self._indexes[name] = index
        self._key_position[name] = position
        self.version = Scope()
        return index

    def index(self, name: str) -> BTreeIndex:
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"index {name!r} does not exist on {self.name!r}") from None

    def index_on(self, column: str) -> BTreeIndex | None:
        """The first index over ``column``, if any (planner hook)."""
        for index in self._indexes.values():
            if index.column == column:
                return index
        return None

    # --------------------------------------------------------------------- DML
    # Row entries: log each record as it is made (appended, and charged,
    # before the AFTER trigger).

    def insert(
        self,
        txn: Transaction,
        values: Sequence[Any],
        mode: InsertMode = InsertMode.STATEMENT,
        fire_triggers: bool = True,
    ) -> RowId:
        """Insert one row; returns its RowId."""
        txn.ensure_active()
        row_cpu = self._costs.row_insert_cpu * self._mode_factor(mode)
        return self._insert_row(txn, values, row_cpu, self._log.append, fire_triggers)

    def insert_many(
        self,
        txn: Transaction,
        rows: Iterable[Sequence[Any]],
        mode: InsertMode = InsertMode.BULK_CLIENT,
    ) -> int:
        """Insert many rows through a bulk path; returns the count."""
        count = 0
        for values in rows:
            self.insert(txn, values, mode=mode)
            count += 1
        return count

    def update(
        self,
        txn: Transaction,
        row_id: RowId,
        assignments: Mapping[str, Any],
        fire_triggers: bool = True,
    ) -> tuple[tuple[Any, ...], tuple[Any, ...]]:
        """Apply column assignments to one row; returns (old, new) values."""
        txn.ensure_active()
        return self._update_row(
            txn, (row_id, assignments), self._costs.row_update_cpu,
            self._log.append, fire_triggers,
        )

    def delete(self, txn: Transaction, row_id: RowId) -> tuple[Any, ...]:
        """Delete one row; returns its old values."""
        txn.ensure_active()
        return self._delete_row(
            txn, row_id, self._costs.row_delete_cpu, self._log.append, True
        )

    # Batch entries (the columnar apply path): the same per-row cores at
    # batch cost — see ``_batch``.

    def insert_batch(
        self, txn: Transaction, rows: Iterable[Sequence[Any]]
    ) -> list[RowId]:
        """Columnar batch insert; returns the new RowIds in order."""
        return self._batch(self._insert_row, txn, rows, self._costs.row_insert_cpu)

    def update_batch(
        self, txn: Transaction, updates: Iterable[tuple[RowId, Mapping[str, Any]]]
    ) -> list[tuple[tuple[Any, ...], tuple[Any, ...]]]:
        """Columnar batch update; returns (old, new) values per row."""
        return self._batch(
            self._update_row, txn, updates, self._costs.row_update_cpu
        )

    def delete_batch(
        self, txn: Transaction, row_ids: Iterable[RowId]
    ) -> list[tuple[Any, ...]]:
        """Columnar batch delete; returns the old values per row."""
        return self._batch(
            self._delete_row, txn, row_ids, self._costs.row_delete_cpu
        )

    def _batch(
        self, mutate: Callable[..., Any], txn: Transaction,
        items: Iterable[Any], row_cpu: float,
    ) -> list[Any]:
        """One row mutation per item, at batch cost; returns the results.

        Per-row CPU is charged at the columnar factor (compiled kernels skip
        per-row dispatch) and the rows' WAL records are group-appended, so
        the fixed append cost is paid once.  The append is in ``finally``:
        when a later row raises, the rows already in the heap still get
        their records, and a caller that commits anyway leaves nothing
        that recovery or log-scan extraction cannot see.
        """
        txn.ensure_active()
        row_cpu *= self._costs.columnar_cpu_factor
        entries: list[tuple[Any, ...]] = []

        def append(*entry: Any) -> None:
            entries.append(entry)

        try:
            return [mutate(txn, item, row_cpu, append, True) for item in items]
        finally:
            self._log.append_batch(entries)

    # The per-row cores: the body of each mutation, written once.  ``append``
    # takes the positional arguments of ``LogManager.append``; each core takes
    # what it mutates as one item (an update its ``(row_id, assignments)``
    # pair) so that ``_batch`` drives all three alike.

    def _insert_row(
        self, txn: Transaction, values: Sequence[Any], row_cpu: float,
        append: LogSink, fire_triggers: bool,
    ) -> RowId:
        values, record = self.schema.admit(values)
        values, record = self._stamp(values, record)
        self._check_unique(values)

        self._clock.advance(row_cpu)

        self._fire(fire_triggers, txn, TriggerTiming.BEFORE, None, values)

        row_id = self._enter(self._heap.insert(record), values)
        append(LogRecordKind.INSERT, txn.txn_id, self.name, row_id, None, record)
        txn.rows_inserted += 1
        txn.register_undo(lambda: self._physical_delete(row_id, values))

        self._fire(fire_triggers, txn, TriggerTiming.AFTER, None, values)
        return row_id

    def _update_row(
        self, txn: Transaction, target: tuple[RowId, Mapping[str, Any]],
        row_cpu: float, append: LogSink, fire_triggers: bool,
    ) -> tuple[tuple[Any, ...], tuple[Any, ...]]:
        row_id, assignments = target
        if not assignments:
            raise SchemaError("update requires at least one assignment")
        old_record = self._heap.read(row_id)
        old_values = decode_row(self.schema, old_record)
        new_list = list(old_values)
        for column_name, value in assignments.items():
            new_list[self.schema.column_index(column_name)] = value
        new_values, new_record = self.schema.admit(new_list)
        if self.auto_timestamp and self.schema.timestamp_column not in assignments:
            new_values, new_record = self._stamp(new_values, new_record, force=True)
        self._check_unique(new_values, exclude=row_id, changed_from=old_values)

        self._clock.advance(row_cpu)

        self._fire(fire_triggers, txn, TriggerTiming.BEFORE, old_values, new_values)

        self._physical_overwrite(row_id, new_record, old_values, new_values)
        append(
            LogRecordKind.UPDATE, txn.txn_id, self.name, row_id, old_record, new_record
        )
        txn.rows_updated += 1
        txn.register_undo(
            lambda: self._physical_overwrite(row_id, old_record, new_values, old_values)
        )

        self._fire(fire_triggers, txn, TriggerTiming.AFTER, old_values, new_values)
        return old_values, new_values

    def _delete_row(
        self, txn: Transaction, row_id: RowId, row_cpu: float,
        append: LogSink, fire_triggers: bool,
    ) -> tuple[Any, ...]:
        old_record = self._heap.read(row_id)
        old_values = decode_row(self.schema, old_record)

        self._clock.advance(row_cpu)

        self._fire(fire_triggers, txn, TriggerTiming.BEFORE, old_values, None)

        self._physical_delete(row_id, old_values)
        append(LogRecordKind.DELETE, txn.txn_id, self.name, row_id, old_record, None)
        txn.rows_deleted += 1
        # Back at its own address: an earlier step's undo names this RowId.
        txn.register_undo(lambda: self.redo_insert(row_id, old_record))

        self._fire(fire_triggers, txn, TriggerTiming.AFTER, old_values, None)
        return old_values

    # ------------------------------------------------------------------- reads
    def read(
        self, row_id: RowId, columns: Sequence[int] | None = None
    ) -> tuple[Any, ...]:
        """Fetch one row by physical id.

        ``columns`` — ascending column positions — narrows the result to
        those columns' values; the default is the full row.
        """
        codec = self.schema.codec
        decode = codec.decode if columns is None else codec.decoder(tuple(columns))
        return decode(self._heap.read(row_id))

    def scan(
        self,
        columns: Sequence[int] | None = None,
        keep: PageFilter | None = None,
        bounds: Sequence[PageBound] = (),
    ) -> Iterator[tuple[RowId, tuple[Any, ...]]]:
        """Full scan in physical order, charging per-row scan CPU.

        Yields ``(RowId, values)`` of every record ``keep`` accepts (default:
        every record), ``values`` being the ``columns`` (ascending positions;
        default: all).  The charge and the ``rows_scanned`` count are per
        heap record, whatever is decoded of it and whether or not it is kept,
        and at every yield — and after an early ``close()`` — the clock and
        the count stand where one ``advance`` per record up to the yielded
        one leaves them: the records between two kept rows are charged in one
        :meth:`~repro.clock.VirtualClock.advance_each` run when the second is
        reached.  So a consumer may read or charge the clock between rows.
        A :class:`RowId` is built only for a kept row.

        ``bounds`` are what the caller knows of every row ``keep`` accepts
        (:data:`PageBound`, ``at`` a column of the table, which must be among
        ``columns``).  A page none of whose values lies inside one of them is
        fetched, counted and charged like any other, but ``keep`` is not run
        over it: the bounds must hold of ``keep``, and ``keep`` must not
        raise on any stored row, for that to change nothing.  Which records
        the host evaluates is not part of the cost model; every fetch and
        every per-record charge is.
        """
        charge = self._charge
        for page_no, slots, rows, kept in self._pages(columns, keep, bounds):
            charged = 0
            for at in kept:
                charge(at + 1 - charged)
                charged = at + 1
                yield RowId(page_no, slots[at]), rows[at]
            charge(len(rows) - charged)

    def scan_values(
        self, columns: Sequence[int] | None = None, keep: PageFilter | None = None
    ) -> Iterator[tuple[Any, ...]]:
        """The values :meth:`scan` yields, without the row ids, charged a
        page at a time.

        Every record of a page is charged (one ``advance_each`` run) before
        the first kept row of the page is handed over, and no generator
        frame is resumed per row.  The clock ends where :meth:`scan` leaves
        it, so this is the read of every consumer that runs to the end and
        neither reads nor charges the clock between two rows of a page — or
        charges only the scan's own constant, as the join probe does:
        additions of one constant commute with each other.
        """
        return chain.from_iterable(self._page_values(columns, keep))

    def _page_values(
        self, columns: Sequence[int] | None, keep: PageFilter | None
    ) -> Iterator[list[tuple[Any, ...]]]:
        for _page_no, _slots, rows, kept in self._pages(columns, keep, ()):
            self._charge(len(rows))
            yield rows if keep is None else [rows[at] for at in kept]

    def scan_pages(self) -> Iterator[list[tuple[Any, ...]]]:
        """Every page's rows in physical order, one list per page: counted
        in ``rows_scanned``, *not* charged.

        The consumer charges ``row_scan_cpu`` once per record itself, as the
        first charge of the cycle each record pays
        (:meth:`~repro.clock.VirtualClock.advance_cycle`): a dump writes every
        record it scans, so its scan and write charges interleave record by
        record.  The lists are the page's kept decode; they are not changed.
        """
        for _page_no, _slots, rows, _kept in self._pages(None, None, ()):
            self._m_rows_scanned.inc(len(rows))
            yield rows

    def _charge(self, records: int) -> None:
        """Charge and count a run of records examined, one by one."""
        self._clock.advance_each(self._costs.row_scan_cpu, records)
        self._m_rows_scanned.inc(records)

    def _pages(
        self, columns: Sequence[int] | None, keep: PageFilter | None,
        bounds: Sequence[PageBound],
    ) -> Iterator[tuple[int, list[int], list[tuple[Any, ...]], Sequence[int]]]:
        """The one walk over the heap's records: per page, ``(page_no, slot
        numbers, decoded rows, positions kept)``, nothing charged.

        The slot numbers and rows are the page's kept decode
        (:meth:`HeapFile.decoded_pages`): shared with every later read of an
        unwritten page, so neither this walk nor its consumers change them.
        ``bounds`` name table columns; each is mapped once, here, to its
        position among ``columns``.  A page with no value inside one of them
        (its kept, sorted :meth:`~repro.engine.page.Page.column_values`)
        keeps no row, and ``keep`` is not called.  Otherwise ``keep`` gets
        an iterator over the page's rows.  When it raises on the k-th of
        them, exactly k records of the page were examined — the iterator's
        length hint says how many were not — and they are charged and
        counted here, as the record-at-a-time loop had by then.
        """
        decode = self.schema.codec.decode_page
        if columns is not None:
            decode = self.schema.codec.page_decoder(tuple(columns))
            bounds = [(columns.index(at), *interval) for at, *interval in bounds]
        for page_no, page, slots, rows in self._heap.decoded_pages(decode):
            if keep is None:
                yield page_no, slots, rows, range(len(rows))
                continue
            if bounds and _excluded(page, decode, bounds):
                yield page_no, slots, rows, ()
                continue
            pending = iter(rows)
            try:
                kept = keep(pending)
            except BaseException:
                self._charge(len(rows) - length_hint(pending))
                raise
            yield page_no, slots, rows, kept

    def lookup(self, column: str, key: Any) -> list[tuple[RowId, tuple[Any, ...]]]:
        """Equality lookup through an index on ``column`` (must exist).

        No program reads a table this way — they ask the access-path
        chooser — but the host benchmark's ``engine.index.lookup_ns`` probe
        times this call."""
        index = self.index_on(column)
        if index is None:
            raise CatalogError(f"no index on {self.name}.{column}")
        results = []
        for row_id in index.lookup(key):
            results.append((row_id, self.read(row_id)))
        return results

    # ---------------------------------------------------------------- recovery
    def redo_insert(self, row_id: RowId, record: bytes) -> None:
        """Replay a logged INSERT at its original address (no log, no triggers)."""
        self._heap.place(row_id, record)
        self._enter(row_id, decode_row(self.schema, record))

    def redo_update(self, row_id: RowId, after: bytes) -> None:
        """Replay a logged UPDATE in place."""
        old_values = decode_row(self.schema, self._heap.read(row_id))
        self._physical_overwrite(
            row_id, after, old_values, decode_row(self.schema, after)
        )

    def redo_delete(self, row_id: RowId) -> None:
        """Replay a logged DELETE."""
        self._physical_delete(
            row_id, decode_row(self.schema, self._heap.read(row_id))
        )

    def truncate(self) -> int:
        """Remove all rows (minimal logging, like the real utility)."""
        removed = self._heap.truncate()
        for name, index in list(self._indexes.items()):
            rebuilt = BTreeIndex(
                index.name, index.column, self._clock, self._costs,
                index.unique, self._metrics,
            )
            self._indexes[name] = rebuilt
        self.version = Scope()
        return removed

    # --------------------------------------------------------------- internals
    def _mode_factor(self, mode: InsertMode) -> float:
        if mode is InsertMode.BULK_CLIENT:
            return self._costs.bulk_client_cpu_factor
        if mode is InsertMode.BULK_INTERNAL:
            return self._costs.bulk_internal_cpu_factor
        return 1.0

    def _stamp(
        self, values: tuple[Any, ...], record: bytes, force: bool = False
    ) -> tuple[tuple[Any, ...], bytes]:
        """Fill the timestamp column from the virtual clock when configured
        (a NULL one; any one when ``force``): the admitted row and its
        record, the stamp written into the record in place."""
        if not self.auto_timestamp or self._ts_index is None:
            return values, record
        if not force and values[self._ts_index] is not None:
            return values, record
        stamped = list(values)
        stamped[self._ts_index] = self._clock.timestamp()
        values = tuple(stamped)
        return values, self.schema.codec.patch(record, values, self._ts_index)

    def _check_unique(
        self,
        values: tuple[Any, ...],
        exclude: RowId | None = None,
        changed_from: tuple[Any, ...] | None = None,
    ) -> None:
        for name, index in self._indexes.items():
            if not index.unique:
                continue
            position = self._key_position[name]
            key = values[position]
            if changed_from is not None and changed_from[position] == key:
                continue  # key unchanged; the existing entry is this row's own
            for row_id in index.lookup(key):
                if row_id != exclude:
                    raise ConstraintError(
                        f"duplicate key {key!r} for unique index {index.name!r} "
                        f"on {self.name!r}"
                    )

    def _fire(
        self, enabled: bool, txn: Transaction, timing: TriggerTiming,
        old_values: tuple[Any, ...] | None, new_values: tuple[Any, ...] | None,
    ) -> None:
        if not enabled or len(self.triggers) == 0:
            return
        if old_values is None:
            event = TriggerEvent.INSERT
        elif new_values is None:
            event = TriggerEvent.DELETE
        else:
            event = TriggerEvent.UPDATE
        if self.triggers.armed(event, timing):
            context = TriggerContext(txn, self, event, old_values, new_values)
            self.triggers.fire(timing, context)

    # Physical mutations — no logging, no triggers — shared by the forward
    # path, redo and undo (compensation).  Each is all or nothing: when an
    # index refuses its entry, what was already done is taken back, so a
    # statement that fails here leaves heap, indexes and row count as they
    # were (nothing has been logged or registered for undo yet).
    def _enter(self, row_id: RowId, values: tuple[Any, ...]) -> RowId:
        """Index the row just placed at ``row_id`` — or take it out again."""
        undo: list[tuple[Any, ...]] = [(self._heap.delete, row_id)]
        try:
            for name, index in self._indexes.items():
                key = values[self._key_position[name]]
                index.insert(key, row_id)
                undo.append((index.delete, key, row_id))
        except BaseException:
            _revert(undo)
            raise
        return row_id

    def _physical_delete(self, row_id: RowId, values: tuple[Any, ...]) -> None:
        self._heap.delete(row_id)
        for name, index in self._indexes.items():
            index.delete(values[self._key_position[name]], row_id)

    def _physical_overwrite(
        self, row_id: RowId, record: bytes,
        old_values: tuple[Any, ...], new_values: tuple[Any, ...],
    ) -> None:
        undo: list[tuple[Any, ...]] = [
            (self._heap.overwrite, row_id, self._heap.overwrite(row_id, record))
        ]
        try:
            for name, index in self._indexes.items():
                position = self._key_position[name]
                old_key, new_key = old_values[position], new_values[position]
                if old_key != new_key:
                    index.delete(old_key, row_id)
                    undo.append((index.insert, old_key, row_id))
                    index.insert(new_key, row_id)
                    undo.append((index.delete, new_key, row_id))
        except BaseException:
            _revert(undo)
            raise

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, rows={self.num_rows}, indexes={list(self._indexes)})"
