"""Property: a kept page decode is the decode a read would make afresh.

A heap page keeps what each page decoder made of it, stamped with its write
count, and hands it out until a write moves the count (``Page.decoded``).
Here random interleavings of every way a page changes — table DML, aborted
transactions (undo), redo of inserts into freed slots, of updates and of
deletes, TRUNCATE, CREATE INDEX — run on two tables of different
layouts that share a buffer pool of two to eight pages, so pages are evicted
and read back all the time.  Between them, ``scan`` and ``scan_values`` read
random column subsets, with and without a filter, and after every write the
written table is read through each decoder its reads use.

Every step runs on two databases built alike: one is read by the
record-at-a-time reference (``tests/reference_scan.py``, which decodes each
record afresh), the other by the engine's kept path.  The reads must agree
on rows, RowIds, ``clock.now.hex()`` at every yield of ``scan`` and at the
end of both reads, and ``rows_scanned``; and the page lists a walk hands out
must be unchanged by every later step.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.page import Page, slots_per_page
from repro.engine.rows import RowId, encode_row
from repro.engine.schema import Column, TableSchema
from repro.engine.types import FLOAT, INTEGER, char

from . import reference_scan
from .reference_scan import rowwise
from .test_property_codec import _datatypes
from .test_property_scan import _values_of

#: One wide column: 3 to 40 records per page, so a table spans pages.
_wide = st.integers(min_value=200, max_value=2600).map(char)
#: The key column every table has, indexed by the CREATE INDEX steps.
_keys = st.integers(min_value=-3, max_value=3)


def _row_ops(rows):
    """The single-row writes: what a transaction and an abort are made of."""
    picks = st.integers(0, 50)
    return st.one_of(
        st.tuples(st.just("insert"), rows),
        st.tuples(st.just("update"), picks, rows),
        st.tuples(st.just("delete"), picks),
    )


class Case:
    """Two layouts, a pool size and the steps run on both tables."""

    def __init__(self, draw):
        types = [INTEGER, *draw(st.lists(_datatypes, max_size=5))]
        types.insert(draw(st.integers(1, len(types))), draw(_wide))
        names = ["k", *(f"c{i}" for i in range(1, len(types)))]
        #: The drawn layout, and the same columns in reverse: another record
        #: layout of the same size, whose positions mean other columns.
        self.schemas = [
            TableSchema("t0", [Column(n, t) for n, t in zip(names, types)]),
            TableSchema(
                "t1", [Column(n, t) for n, t in zip(names[::-1], types[::-1])]
            ),
        ]
        self.pool = draw(st.integers(2, 8))
        width = len(types)
        #: Per table, the column subsets its reads use (0: the full row), so
        #: that reads come back to the decoders earlier reads kept.
        self.columns = [
            [None]
            + draw(
                st.lists(
                    st.sets(st.integers(0, width - 1)).map(lambda s: tuple(sorted(s))),
                    min_size=1, max_size=2,
                )
            )
            for _ in self.schemas
        ]
        cells = [
            _keys,
            *(st.one_of(st.none(), _values_of(t)) for t in types[1:]),
        ]
        rows = st.tuples(*cells)
        #: What both tables hold before the first step.
        self.rows = draw(st.lists(rows, min_size=4, max_size=30))
        tables = st.integers(0, 1)
        choices = st.integers(0, 2)
        filters = st.one_of(st.none(), st.lists(st.booleans(), min_size=1, max_size=7))
        picks = st.integers(0, 50)
        reads = st.tuples(
            st.sampled_from(["scan", "values"]), tables, choices, filters
        )
        self.steps = draw(
            st.lists(
                st.one_of(
                    reads,
                    st.tuples(st.just("write"), tables, _row_ops(rows)),
                    st.tuples(st.just("hold"), tables, choices),
                    st.tuples(
                        st.just("abort"), tables,
                        st.lists(_row_ops(rows), min_size=1, max_size=4),
                    ),
                    st.tuples(st.just("redo_insert"), tables, picks, rows),
                    st.tuples(st.just("redo_update"), tables, picks, rows),
                    st.tuples(st.just("redo_delete"), tables, picks),
                    st.tuples(st.just("index"), tables),
                    st.tuples(st.just("truncate"), tables),
                ),
                min_size=12,
                max_size=40,
            )
        )

    def layout(self, table, row):
        """``row`` (drawn in table 0's column order) as ``table`` stores it."""
        return row if table == 0 else row[::-1]

    def chosen(self, table, choice):
        options = self.columns[table]
        return options[choice % len(options)]


_cases = st.composite(lambda draw: Case(draw))()


class Twin:
    """One of the two databases a case runs on."""

    def __init__(self, case):
        self.case = case
        self.database = Database("test", buffer_pages=case.pool)
        self.tables = [self.database.create_table(s) for s in case.schemas]

    def fill(self):
        """Insert the drawn rows into both tables, row by row, in one
        transaction; returns each table's RowId -> values."""
        live = [{}, {}]
        txn = self.database.begin()
        for row in self.case.rows:
            for t in (0, 1):
                self.row_op(txn, t, ("insert", row), live[t])
        self.database.commit(txn)
        return live

    def scanned(self):
        return self.database.metrics.counter(
            "engine.table.rows_scanned", db="test"
        ).value

    # ------------------------------------------------------------- writes
    def rewritten(self, t, row, old):
        """``row`` as table ``t`` stores it, with the key one past ``old``'s:
        an update always changes the record it overwrites."""
        schema = self.tables[t].schema
        values = list(self.case.layout(t, row))
        at = schema.column_index("k")
        values[at] = old[at] + 1
        return schema.validate_values(values)

    def row_op(self, txn, t, op, live):
        """One single-row write; ``live`` (RowId -> values) follows it."""
        table = self.tables[t]
        ids = sorted(live)
        if op[0] == "insert":
            values = table.schema.validate_values(self.case.layout(t, op[1]))
            live[table.insert(txn, values)] = values
        elif ids and op[0] == "update":
            row_id = ids[op[1] % len(ids)]
            values = self.rewritten(t, op[2], live[row_id])
            table.update(txn, row_id, dict(zip(table.schema.column_names, values)))
            live[row_id] = values
        elif ids and op[0] == "delete":
            row_id = ids[op[1] % len(ids)]
            table.delete(txn, row_id)
            del live[row_id]

    def write(self, step, live):
        """Apply one writing step; returns the table's rows after it (an
        abort puts every row back at its own RowId)."""
        kind, t, *rest = step
        table, before, live = self.tables[t], live, dict(live)
        ids = sorted(live)
        if kind == "write":
            txn = self.database.begin()
            self.row_op(txn, t, rest[0], live)
            self.database.commit(txn)
        elif kind == "abort":
            txn = self.database.begin()
            for op in rest[0]:
                self.row_op(txn, t, op, live)
            self.database.abort(txn)
            return before
        elif kind == "redo_insert":
            capacity = slots_per_page(table.schema.record_size)
            free = [
                RowId(page_no, slot_no)
                for page_no in table._heap.page_numbers
                for slot_no in range(capacity)
                if RowId(page_no, slot_no) not in live
            ]
            if free:
                row_id = free[rest[0] % len(free)]
                values = table.schema.validate_values(self.case.layout(t, rest[1]))
                table.redo_insert(row_id, encode_row(table.schema, values))
                live[row_id] = values
        elif kind == "redo_update" and ids:
            row_id = ids[rest[0] % len(ids)]
            values = self.rewritten(t, rest[1], live[row_id])
            table.redo_update(row_id, encode_row(table.schema, values))
            live[row_id] = values
        elif kind == "redo_delete" and ids:
            row_id = ids[rest[0] % len(ids)]
            table.redo_delete(row_id)
            del live[row_id]
        elif kind == "truncate":
            table.truncate()
            live.clear()
        elif kind == "index" and "ix_k" not in table._indexes:
            table.create_index("ix_k", "k")
        return live

    # -------------------------------------------------------------- reads
    def read(self, step, reference):
        """Everything a read shows: rows (with RowId and clock for
        ``scan``), the clock at the end, the scan count."""
        kind, t, choice, verdicts = step
        table, clock = self.tables[t], self.database.clock
        columns = self.case.chosen(t, choice)
        keep = None
        if verdicts is not None:
            examined = itertools.count()

            def keep(_values):
                return verdicts[next(examined) % len(verdicts)]

        if reference:
            pairs = reference_scan.scan(table, columns, keep)
            rows = pairs if kind == "scan" else (v for _r, v in pairs)
        else:
            read = table.scan if kind == "scan" else table.scan_values
            rows = read(columns, None if keep is None else rowwise(keep))
        if kind == "scan":
            seen = [(row_id, values, clock.now.hex()) for row_id, values in rows]
        else:
            seen = list(rows)
        return seen, clock.now.hex(), self.scanned()

    def walk(self, t, choice, reference):
        """Every page's ``(page_no, live slots, rows)``: decoded afresh from
        the records (reference) or as the heap hands them out (kept)."""
        table = self.tables[t]
        columns = self.case.chosen(t, choice)
        codec = table.schema.codec
        decode = codec.decode_page if columns is None else codec.page_decoder(columns)
        if reference:
            return [
                (page_no, slots, decode(records))
                for page_no, slots, records in table._heap.pages()
            ]
        return [
            (page_no, slots, rows)
            for page_no, _page, slots, rows in table._heap.decoded_pages(decode)
        ]


def run(case):
    reference, kept = Twin(case), Twin(case)
    live = reference.fill()
    assert kept.fill() == live
    held = []  # (list handed out, a copy taken then)
    for step in case.steps:
        kind, t = step[0], step[1]
        if kind in ("scan", "values"):
            expected = reference.read(step, reference=True)
            assert repr(kept.read(step, reference=False)) == repr(expected), step
        elif kind == "hold":
            expected = reference.walk(t, step[2], reference=True)
            pages = kept.walk(t, step[2], reference=False)
            assert repr(pages) == repr(expected), step
            held.extend(
                (handed, list(handed))
                for _page_no, slots, rows in pages
                for handed in (slots, rows)
            )
        else:
            after = [twin.write(step, live[t]) for twin in (reference, kept)]
            assert after[0] == after[1], step
            # Every write is followed by a read of its table through each
            # decoder its reads use: what was kept before the write must not
            # be what is handed out after it.
            for choice in range(len(case.columns[t])):
                check = ("scan", t, choice, None)
                expected = reference.read(check, reference=True)
                assert repr(kept.read(check, reference=False)) == repr(expected), (
                    step, check,
                )
                if choice == 0:  # the full row: the table is what the model says
                    schema = reference.tables[t].schema
                    assert {
                        r: encode_row(schema, v) for r, v, _at in expected[0]
                    } == {r: encode_row(schema, v) for r, v in after[0].items()}, step
            live[t] = after[0]
        for handed, copy in held:
            assert handed == copy, ("a handed-out list changed", step)
    for table, rows in zip(kept.tables, live):
        assert table.num_rows == len(rows)


@given(_cases)
@settings(max_examples=200, deadline=None)
def test_a_kept_decode_reads_as_a_fresh_one(case):
    run(case)


_narrow = st.one_of(st.sampled_from([INTEGER, FLOAT]), st.integers(1, 12).map(char))


@given(
    st.lists(_narrow, min_size=1, max_size=6).flatmap(
        lambda types: st.tuples(
            st.just(types),
            st.lists(
                st.tuples(*(st.one_of(st.none(), _values_of(t)) for t in types)),
                max_size=8,
            ),
            st.sets(st.integers(0, len(types) - 1)).map(lambda s: tuple(sorted(s))),
        )
    )
)
@settings(max_examples=150)
@example(([INTEGER, FLOAT], [(1, 2.5), (None, -0.0)], (0,)))
def test_the_kept_decode_is_keyed_by_the_decoder_not_its_positions(drawn):
    """One page read through two layouts of one record size, asking for the
    same positions: each read is its own layout's decode, kept or not."""
    types, rows, positions = drawn
    ours = TableSchema("a", [Column(f"c{i}", t) for i, t in enumerate(types)])
    theirs = TableSchema("b", [Column(f"c{i}", t) for i, t in enumerate(types[::-1])])
    assert ours.record_size == theirs.record_size
    page = Page(ours.record_size)
    for row in rows:
        page.insert(encode_row(ours, ours.validate_values(row)))
    for _round in range(2):
        for schema in (ours, theirs, ours):
            slots, decoded = page.decoded(schema.codec.page_decoder(positions))
            one = schema.codec.decoder(positions)
            live, records = page.records()
            assert slots == live
            assert repr(decoded) == repr([one(record) for record in records])
