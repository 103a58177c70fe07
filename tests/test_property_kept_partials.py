"""Property: a kept aggregate partial is the aggregate of its page's rows now.

A full-scan aggregate SELECT (no join) is a merge of per-page partials, and
the plan of its shape keeps each page's partial for the next statement of the
same literal values until the page is next written (``Table.scan_partials``,
``PagePartials``, ``HeapFile.written_since``).  Here random runs of every way
a page changes — committed
inserts, updates and deletes, aborted transactions (undo), TRUNCATE, and
eviction through a pool of two to four pages — are interleaved with
aggregate SELECTs: ``COUNT(*)``, ``COUNT(col)``, SUM and AVG over INTEGER
and FLOAT columns with NULLs, MIN and MAX, grouped by nothing, one or two
columns, under WHERE clauses whose literals vary (so a kept partial is
handed back, replaced, or stale), one that raises part-way through a page,
and one that draws ``RANDOM()``.  Where the partial is counts and sums the
plan also keeps their total, retallied as each written page is derived
again.  The schema comes in two widths: eight rows to a page, and 214 (no
``pad``), so that two or three rows of a page change between two reads of it.

Every step runs on two databases built alike.  The first runs the aggregate
SELECT, and with it the memo.  The second runs ``SELECT * ... WHERE`` with the
same WHERE — a plain scan, which keeps no partial — and the rows it returns
are aggregated again through :class:`~repro.sql.source.ListDatabase`, one
partial over all of them.  The two must give the same result — by ``repr``,
so floats are bit-equal and groups in the same order — or the same error;
and after every step the two must stand alike: ``clock.now.hex()``,
``rows_scanned``, the buffer pool's hits, misses and evictions, the disk's
reads and writes, and the order of the pool's frames (a kept partial's page
is reused in its frame, and its hit charged in a run, by the walk that a
page not in a frame or a dirty victim interrupts).  A SELECT whose WHERE
reads ``RANDOM()`` must leave no partial on its plan.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.page import slots_per_page
from repro.engine.schema import Column, TableSchema
from repro.engine.types import FLOAT, INTEGER, char
from repro.errors import ReproError
from repro.sql.executor import Executor
from repro.sql.parser import TEMPLATE_CAPACITY, TemplateTable, parse
from repro.sql.source import ListDatabase, ListSource
from repro.workloads import parts_schema

#: ``k`` keys the rows; ``g``/``h`` group them; ``i``/``f`` are the numbers
#: and ``s`` the text an aggregate reads; ``pad`` makes a page hold few rows.
SCHEMA = TableSchema(
    "t",
    [
        Column("k", INTEGER),
        Column("g", char(2)),
        Column("h", INTEGER),
        Column("i", INTEGER),
        Column("f", FLOAT),
        Column("s", char(3)),
        Column("pad", char(900)),
    ],
)
#: The same columns but ``pad``: 214 rows to a page.
DENSE = TableSchema("t", SCHEMA.columns[:-1])

#: Floats whose sums depend on the order they are added in.
_floats = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16, 1.0, -0.0, 2.5]),
    st.floats(-1e12, 1e12, allow_nan=False),
)
_rows = st.tuples(
    st.integers(0, 9),
    st.sampled_from(["a", "b", "c"]),
    st.integers(0, 2),
    st.one_of(st.none(), st.integers(-50, 50)),
    st.one_of(st.none(), _floats),
    st.one_of(st.none(), st.sampled_from(["x", "yy", "z"])),
    st.just("p"),
)

AGGREGATES = [
    "COUNT(*)", "COUNT(i)", "COUNT(f)", "SUM(i)", "SUM(f)", "AVG(i)", "AVG(f)",
    "MIN(i)", "MAX(f)", "MIN(s)", "MAX(s)", "SUM(s)",
]
GROUPINGS = [(), ("g",), ("g", "h"), ("h", "g")]
#: WHERE templates, each literal drawn from a few values so that statements
#: repeat one another and differ; ``i / 0 > 0`` raises at its first non-NULL
#: ``i``, and RANDOM() is volatile.
WHERES = [
    None,
    "i > {n}",
    "f < {x}",
    "h = {n}",
    "i / {n} > 0",
    "RANDOM() < {x}",
]
_literals = st.tuples(st.integers(0, 2), st.sampled_from([0.25, 0.5, 1.0]))


def _shape(draw) -> tuple[str, str, str | None]:
    """An aggregate SELECT's select list, GROUP BY and WHERE, the WHERE's
    literals still to be filled in (``{n}``, ``{x}``)."""
    grouping = draw(st.sampled_from(GROUPINGS))
    aggregates = draw(st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3))
    items = ", ".join([*grouping, *aggregates])
    group_by = f" GROUP BY {', '.join(grouping)}" if grouping else ""
    return items, group_by, draw(st.sampled_from(WHERES))


#: What a partial of counts and sums is made of: its plan keeps the total
#: of its pages' partials.
TALLIES = ["COUNT(*)", "COUNT(i)", "SUM(i)", "AVG(i)"]


def _tally_shape(draw) -> tuple[str, str, str | None]:
    """An ungrouped SELECT of counts and sums alone, as :func:`_shape`."""
    aggregates = draw(st.lists(st.sampled_from(TALLIES), min_size=1, max_size=3))
    return ", ".join(aggregates), "", draw(st.sampled_from(WHERES))


_shapes = st.lists(
    st.one_of(st.composite(_shape)(), st.composite(_tally_shape)()),
    min_size=1, max_size=3,
)

_ops = st.one_of(
    st.tuples(st.just("insert"), _rows),
    st.tuples(st.just("update"), st.integers(0, 99), _rows),
    st.tuples(st.just("delete"), st.integers(0, 99)),
)
#: A SELECT step names one of the case's shapes, and the literals it uses.
_steps = st.one_of(
    st.tuples(st.just("select"), st.integers(0, 2), _literals),
    st.tuples(st.just("select"), st.integers(0, 2), _literals),
    st.tuples(st.just("write"), _ops),
    st.tuples(st.just("abort"), st.lists(_ops, min_size=1, max_size=3)),
    st.tuples(st.just("truncate")),
)


@dataclasses.dataclass
class Case:
    pool: int
    rows: list[tuple]
    #: Few shapes, so that a statement often repeats an earlier one's shape.
    shapes: list[tuple[str, str, str | None]]
    steps: list[tuple]
    schema: TableSchema = dataclasses.field(default_factory=lambda: SCHEMA)


_cases = st.builds(
    Case,
    pool=st.integers(2, 4),
    rows=st.lists(_rows, min_size=4, max_size=24),
    shapes=_shapes,
    steps=st.lists(_steps, min_size=10, max_size=24),
)


#: Writes spread over every row of a dense table, updates most of them.
_dense_update = st.tuples(st.just("update"), st.integers(0, 999), _rows)
_dense_ops = st.one_of(
    _dense_update, _dense_update, _dense_update,
    st.tuples(st.just("insert"), _rows),
    st.tuples(st.just("delete"), st.integers(0, 999)),
)
#: Two or three pages of the dense schema — each row drawn stands ten
#: times, so that a case stays quick to draw — written more often than
#: read, with literals that mostly repeat, so that a page read again has
#: had a few of its rows written since.
_dense_cases = st.builds(
    Case,
    pool=st.integers(2, 4),
    rows=st.lists(_rows, min_size=22, max_size=48).map(
        lambda rows: [row for row in rows for _copy in range(10)]
    ),
    shapes=st.lists(
        st.one_of(
            st.composite(_tally_shape)(), st.composite(_tally_shape)(),
            st.composite(_shape)(),
        ),
        min_size=1, max_size=3,
    ),
    steps=st.lists(
        st.one_of(
            st.tuples(
                st.just("select"), st.integers(0, 2),
                st.sampled_from([(1, 0.5), (1, 0.5), (0, 1.0)]),
            ),
            st.tuples(st.just("write"), _dense_ops),
            st.tuples(st.just("write"), _dense_ops),
            st.tuples(st.just("abort"), st.lists(_dense_ops, min_size=1, max_size=3)),
        ),
        min_size=10, max_size=30,
    ),
    schema=st.just(DENSE),
)


class Twin:
    """One of the two databases a case runs on."""

    def __init__(self, case: Case) -> None:
        self.schema = case.schema
        self.database = Database("test", buffer_pages=case.pool)
        self.table = self.database.create_table(self.schema)
        #: SELECTs run straight through the executor: a session would add
        #: a transaction, committed or aborted as the statement ends.
        self.executor = Executor(self.database)
        #: RowId -> values of the rows a committed history leaves.
        self.live: dict = {}
        txn = self.database.begin()
        for row in case.rows:
            self.row_op(txn, ("insert", row), self.live)
        self.database.commit(txn)

    def row_op(self, txn, op, live, among=None) -> None:
        """One single-row write; ``live`` follows it.  ``among``: the rows
        it may pick (default: every live one)."""
        ids = sorted(live if among is None else among)
        width = len(self.schema.columns)
        if op[0] == "insert":
            live[self.table.insert(txn, op[1][:width])] = op[1][:width]
        elif ids and op[0] in ("update", "delete"):
            row_id = ids[op[1] % len(ids)]
            if among is not None:
                among.discard(row_id)  # an aborted write touches a row once
            if op[0] == "update":
                self.table.update(
                    txn, row_id, dict(zip(self.schema.column_names, op[2]))
                )
                live[row_id] = op[2][:width]
            else:
                self.table.delete(txn, row_id)
                del live[row_id]

    def write(self, step) -> None:
        if step[0] == "write":
            txn = self.database.begin()
            self.row_op(txn, step[1], self.live)
            self.database.commit(txn)
        elif step[0] == "abort":
            txn = self.database.begin()
            live, untouched = dict(self.live), set(self.live)
            for op in step[1]:
                self.row_op(txn, op, live, among=untouched)
            self.database.abort(txn)
        else:
            self.table.truncate()
            self.live.clear()

    def query(self, sql: str) -> list[tuple]:
        return self.executor.execute(parse(sql), None).rows

    def observed(self):
        """The clock, the counts and the pool's frames, in LRU order."""
        counted = [
            self.database.metrics.counter(name, db="test").value
            for name in (
                "engine.table.rows_scanned", "engine.buffer.hit",
                "engine.buffer.miss", "engine.buffer.eviction",
                "engine.disk.read", "engine.disk.write",
            )
        ]
        frames = list(self.database.buffer_pool._frames)
        return self.database.clock.now.hex(), counted, frames


def _outcome(run):
    try:
        return "rows", run()
    except ReproError as exc:
        return "error", type(exc).__name__, str(exc)


def _plan(table, statement):
    """The plan SELECTs of ``statement``'s shape run on over ``table``
    (None: not made yet), filed under the table's version."""
    return statement.binding.template._facts.get(table.version, {}).get("select")


def run(case: Case) -> None:
    kept, scanned = Twin(case), Twin(case)
    for step in case.steps:
        if step[0] != "select":
            kept.write(step)
            scanned.write(step)
            # Both tables hold what the writes left (read alike, so the two
            # stay in step).
            held = [kept.live[row_id] for row_id in sorted(kept.live)]
            assert kept.query("SELECT * FROM t") == held, step
            assert scanned.query("SELECT * FROM t") == held, step
            continue
        items, group_by, where = case.shapes[step[1] % len(case.shapes)]
        n, x = step[2]
        clause = "" if where is None else f" WHERE {where.format(n=n, x=x)}"
        aggregate = f"SELECT {items} FROM t{clause}{group_by}"
        got = _outcome(lambda: kept.query(aggregate))
        read = _outcome(lambda: scanned.query(f"SELECT * FROM t{clause}"))
        assert kept.observed() == scanned.observed(), (aggregate, got, read)
        if read[0] == "error":
            assert got == read, aggregate
            continue
        rows = read[1]
        over_rows = ListDatabase("test", lambda _name: ListSource(case.schema, rows))
        expected = _outcome(
            lambda: Executor(over_rows).execute(
                parse(f"SELECT {items} FROM t{group_by}"), None
            ).rows
        )
        assert repr(got) == repr(expected), aggregate
        if where is not None and where.startswith("RANDOM"):
            assert _plan(kept.table, parse(aggregate)).kept is None, aggregate


#: Two pages of floats whose sum in row order is 1.0, and the sum of the
#: two pages' sums 0.0.
_PER_PAGE = slots_per_page(SCHEMA.record_size)
_ORDER = [
    (k, "a", 0, None, f, None, "p")
    for k, f in enumerate(
        [1.0, 1e16] + [0.0] * (_PER_PAGE - 2) + [-1e16, 1.0]
    )
]


_SPREAD = [
    (k, "abc"[k % 3], 0, None, [0.1, 0.3, 0.6, 0.9][k % 4], None, "p") for k in range(16)
]


@given(_cases)
@settings(max_examples=50, deadline=None)
@example(Case(
    pool=3, rows=_ORDER, shapes=[("SUM(f), AVG(f)", "", None)],
    steps=[("select", 0, (0, 0.5)), ("select", 0, (0, 0.5))],
))
#: A shape read with other literals, after a write, and with RANDOM() twice.
@example(Case(
    pool=3, rows=_SPREAD,
    shapes=[("COUNT(*)", "", "f < {x}"), ("g, COUNT(*)", " GROUP BY g", "RANDOM() < {x}")],
    steps=[
        ("select", 0, (0, 0.5)),
        ("select", 0, (0, 1.0)),
        ("write", ("update", 2, (2, "a", 0, None, 2.0, None, "p"))),
        ("select", 0, (0, 1.0)),
        ("select", 1, (0, 0.5)),
        ("select", 1, (0, 0.5)),
    ],
))
#: A WHERE that raises on a page's fourth row: three records examined.
@example(Case(
    pool=3, rows=_SPREAD[:3] + [(3, "a", 0, 7, 0.1, None, "p")] + _SPREAD[4:],
    shapes=[("COUNT(*)", "", "i / {n} > 0")],
    steps=[("select", 0, (0, 0.5)), ("select", 0, (0, 0.5))],
))
#: Kept partials handed back, their hits owed, and then a page written
#: since raises: the owed run is charged before the raise.
@example(Case(
    pool=4, rows=[(k, "a", 0, None, 0.5, None, "p") for k in range(3 * _PER_PAGE)],
    shapes=[("COUNT(*)", "", "i / {n} > 0")],
    steps=[
        ("select", 0, (0, 0.5)),
        ("write", ("update", 2 * _PER_PAGE, (0, "a", 0, 7, 0.5, None, "p"))),
        ("select", 0, (0, 0.5)),
    ],
))
#: A page derived again into the total (page 0), one handed back (page 1),
#: their hits owed, and a row written since on page 2 on which the WHERE
#: raises; then that row written again, and the pages read once more.
@example(Case(
    pool=4, rows=[(k, "a", 0, None, 0.5, None, "p") for k in range(3 * _PER_PAGE)],
    shapes=[("COUNT(*), SUM(i)", "", "i / {n} > 0")],
    steps=[
        ("select", 0, (0, 0.5)),
        ("write", ("update", 1, (1, "b", 0, None, 0.25, None, "p"))),
        ("write", ("update", 2 * _PER_PAGE + 3, (0, "a", 0, 7, 0.5, None, "p"))),
        ("select", 0, (0, 0.5)),
        ("write", ("update", 2 * _PER_PAGE + 3, (0, "a", 0, None, 0.5, None, "p"))),
        ("select", 0, (0, 0.5)),
    ],
))
#: Page 1 derived again into the total, then evicted by the pages inserts
#: add and read back — unwritten, then written — while its partial is kept.
@example(Case(
    pool=4, rows=[(k, "a", 0, k, 0.5, "x", "p") for k in range(3 * _PER_PAGE)],
    shapes=[("COUNT(*), SUM(i), AVG(i)", "", "i > {n}")],
    steps=[
        ("select", 0, (1, 0.5)),
        ("write", ("update", _PER_PAGE + 1, (9, "a", 0, 42, 0.5, "x", "p"))),
        ("select", 0, (1, 0.5)),
        *[("write", ("insert", (k, "b", 1, k, 0.5, None, "p"))) for k in range(17)],
        ("select", 0, (1, 0.5)),
        ("write", ("update", _PER_PAGE + 2, (9, "a", 0, -3, 0.5, "x", "p"))),
        ("select", 0, (1, 0.5)),
        ("select", 0, (1, 0.5)),
    ],
))
def test_a_kept_partial_aggregates_as_a_fresh_scan(case):
    run(case)


@given(_dense_cases)
@settings(max_examples=40, deadline=None)
def test_a_kept_partial_of_a_dense_page_aggregates_as_a_fresh_scan(case):
    run(case)


def _kept_partials(table, sql: str) -> dict:
    """Page number -> the partial the plan of ``sql``'s shape keeps of it
    (an entry is ``(record count, partial)``)."""
    return {
        page_no: partial
        for page_no, (_count, partial) in _plan(table, parse(sql)).kept.pages.items()
    }


def test_the_merge_leaves_every_kept_partial_as_it_was():
    """A FLOAT SUM and AVG over three pages, again after the middle page is
    written: bit-equal to the sum of the rows in scan order, and each
    page's kept value lists are the same lists with the same values after
    both merges."""
    database = Database("test", buffer_pages=8)
    table = database.create_table(SCHEMA)
    floats = [1e16, 0.1, -1e16, 0.3, 2.5, -0.0, 1.0, 0.7]
    rows = [
        (k, "a", 0, None, floats[k % len(floats)] * (1 + k), None, "p")
        for k in range(3 * _PER_PAGE)
    ]
    txn = database.begin()
    ids = [table.insert(txn, row) for row in rows]
    database.commit(txn)
    assert len(table._heap.page_numbers) == 3
    executor = Executor(database)

    def check():
        sql = "SELECT SUM(f), AVG(f) FROM t"
        aggregate = parse(sql)
        [(total, mean)] = executor.execute(aggregate, None).rows
        values = [f for (f,) in executor.execute(parse("SELECT f FROM t"), None).rows]
        assert total.hex() == sum(values).hex()
        assert mean.hex() == (sum(values) / len(values)).hex()
        decode = SCHEMA.codec.decode_page
        on_page = {
            page_no: [row[4] for row in page.decoded(decode)[1] if row[4] is not None]
            for page_no, page in table._heap.fetched()
        }
        held = {}
        for page_no, groups in _kept_partials(table, sql).items():
            lists = groups[()][1:]
            assert lists == [on_page[page_no]], page_no  # SUM(f) and AVG(f) share one
            held[page_no] = [(lst, list(lst)) for lst in lists]
        assert len(held) == 3
        return held

    first = check()
    middle = table._heap.page_numbers[1]
    write = database.begin()
    table.update(write, ids[_PER_PAGE + 1], {"f": 3.25})
    database.commit(write)
    second = check()
    for page_no, lists in first.items():
        for kept, contents in lists:
            assert kept == contents, page_no  # no merge changed a kept list
        if page_no != middle:  # handed back by the second merge, unchanged
            assert [id(k) for k, _c in second[page_no]] == [id(k) for k, _c in lists]
    assert [c for _k, c in second[middle]] != [c for _k, c in first[middle]]


def test_an_integer_argument_keeps_a_fold_and_a_float_its_values():
    """Per page, a kept partial folds an INTEGER argument into (non-NULL
    count, sum, min, max) — (count, sum) where no MIN or MAX reads it — and
    keeps a FLOAT argument's values, in row order.  Which is decided per
    shape, from the column's type and the aggregates over it: a page whose
    ``f`` are all NULL keeps an empty list, not a fold, and a page whose
    ``i`` are all NULL keeps the fold of no value, whose MIN and MAX are
    NULL and which adds no value to the merge."""
    database = Database("test", buffer_pages=8)
    table = database.create_table(SCHEMA)
    rows = []
    for k in range(3 * _PER_PAGE):
        page = k // _PER_PAGE
        i = [None, (k % 17) - 5, None if k % 2 else k][page]
        f = None if page == 1 else k * 0.1
        rows.append((k, "ab"[k % 2], 0, i, f, None, "p"))
    txn = database.begin()
    for row in rows:
        table.insert(txn, row)
    database.commit(txn)
    assert len(table._heap.page_numbers) == 3
    executor = Executor(database)
    over_rows = ListDatabase("test", lambda _name: ListSource(SCHEMA, rows))
    queries = [
        "SELECT COUNT(i), SUM(i), MIN(i), MAX(i), AVG(i), SUM(f), MIN(f) FROM t",
        "SELECT g, MIN(i), MAX(i), SUM(i), AVG(f) FROM t GROUP BY g",
        f"SELECT COUNT(i), SUM(i), MIN(i), MAX(i), AVG(i) FROM t WHERE k < {_PER_PAGE}",
        "SELECT g, COUNT(i), SUM(i), AVG(i) FROM t GROUP BY g",
    ]
    for sql in queries:
        expected = Executor(over_rows).execute(parse(sql), None).rows
        for _again in range(2):  # made, then handed back by every page
            assert repr(executor.execute(parse(sql), None).rows) == repr(expected), sql
    assert executor.execute(parse(queries[2]), None).rows == [(0, None, None, None, None)]

    partials = _kept_partials(table, queries[0])
    assert len(partials) == 3
    for number, page_no in enumerate(table._heap.page_numbers):
        fold, values = partials[page_no][()][1:]
        on_page = rows[number * _PER_PAGE:(number + 1) * _PER_PAGE]
        ints = [row[3] for row in on_page if row[3] is not None]
        assert fold == (
            (len(ints), sum(ints), min(ints), max(ints)) if ints else (0, 0, None, None)
        ), number
        assert type(fold) is tuple and all(type(v) is int for v in fold[:2])
        assert type(values) is list
        assert values == [row[4] for row in on_page if row[4] is not None], number
        # No MIN or MAX reads ``i`` here: each group's fold stops at the sum.
        for group, (_count, tally) in _kept_partials(table, queries[3])[page_no].items():
            ints = [
                row[3] for row in on_page if row[1] == group[0] and row[3] is not None
            ]
            assert tally == ((len(ints), sum(ints)) if ints else (0, 0, None, None))


def test_an_unwritten_page_hands_back_its_partial_and_a_written_one_is_made_again():
    """Per page, the plan's partial is the same object statement after
    statement until the page is written — also for the page written last
    before a statement — and a write makes that page's alone again."""
    database = Database("test", buffer_pages=8)
    table = database.create_table(SCHEMA)
    rows = [(k, "ab"[k % 2], 0, k, None, None, "p") for k in range(3 * _PER_PAGE)]
    txn = database.begin()
    ids = [table.insert(txn, row) for row in rows]
    database.commit(txn)
    executor = Executor(database)
    sql = "SELECT COUNT(*), SUM(i) FROM t"

    def partials():
        executor.execute(parse(sql), None)
        kept = _kept_partials(table, sql)
        return {page: id(partial) for page, partial in kept.items()}

    first = partials()
    assert partials() == first
    middle = table._heap.page_numbers[1]
    write = database.begin()
    table.update(write, ids[_PER_PAGE + 2], {"i": -1})
    database.commit(write)
    second = partials()
    assert [page for page in first if second[page] != first[page]] == [middle]
    assert partials() == second  # the last page written is not made again
    total = sum(range(len(rows))) - (_PER_PAGE + 2) - 1
    assert executor.execute(parse(sql), None).rows == [(len(rows), total)]


def test_kept_state_goes_with_its_template():
    """Past ``TEMPLATE_CAPACITY`` distinct shapes, each page keeps only its
    decodes and sorted columns — no statement's partial — and the first
    shape's template, with its plan and what the plan keeps, is freed once
    the template table evicts it."""
    database = Database("test", buffer_pages=64)
    schema = parts_schema()
    table = database.create_table(schema)
    txn = database.begin()
    for k in range(500):
        table.insert(txn, (k, k, f"P{k:08d}", "d", "new", k % 7, 1.5, None, k % 60))
    database.commit(txn)
    executor, templates = Executor(database), TemplateTable()
    shapes = [
        f"SELECT part_id, COUNT(*) AS c{k} FROM parts GROUP BY part_id"
        for k in range(TEMPLATE_CAPACITY + 8)
    ]
    statement = templates.parse(shapes[0])
    first = weakref.ref(statement.binding.template)
    assert len(executor.execute(statement, None).rows) == 500
    del statement
    for sql in shapes[1:]:
        executor.execute(templates.parse(sql), None)
    decoders = (schema.codec.decode_page, schema.codec.page_decoder((0,)))
    for page_no in table._heap.page_numbers:
        for key in database.buffer_pool._frames[page_no]._kept:
            decoder = key[0] if isinstance(key, tuple) else key
            assert decoder in decoders, key
            assert not isinstance(key, tuple) or isinstance(key[1], int), key
    gc.collect()
    assert first() is None



# ------------------------------------------------------- the kept total
_DENSE_PER_PAGE = slots_per_page(DENSE.record_size)


def _dense_rows(count: int) -> list[tuple]:
    return [
        (k, "ab"[k % 2], k % 3, k, k * 0.5, "xy"[k % 2] if k % 5 else None)
        for k in range(count)
    ]


def _dense_table(pages: int, pool: int = 16, rows=None):
    """A table of the dense schema, ``pages`` pages full unless ``rows``
    are given; returns the database, the table, the rows and their ids."""
    database = Database("test", buffer_pages=pool)
    table = database.create_table(DENSE)
    if rows is None:
        rows = _dense_rows(pages * _DENSE_PER_PAGE)
    txn = database.begin()
    ids = [table.insert(txn, row) for row in rows]
    database.commit(txn)
    assert len(table._heap.page_numbers) == pages
    return database, table, list(rows), ids


def _over(rows, sql: str) -> list[tuple]:
    """``sql`` run over ``rows`` as they are: one partial of all of them."""
    over_rows = ListDatabase("test", lambda _name: ListSource(DENSE, rows))
    return Executor(over_rows).execute(parse(sql), None).rows


def _spied(plan) -> list[int]:
    """The row counts the plan's ``partial`` is called with from now on."""
    calls: list[int] = []
    partial = plan.partial

    def spy(rows):
        rows = list(rows)
        calls.append(len(rows))
        return partial(rows)

    plan.partial = spy
    return calls


def _write(database, table, rows, ids, at, assignments) -> None:
    """One committed UPDATE of row ``at``; ``rows`` follows it."""
    txn = database.begin()
    table.update(txn, ids[at], assignments)
    database.commit(txn)
    row = list(rows[at])
    for name, value in assignments.items():
        row[DENSE.column_index(name)] = value
    rows[at] = tuple(row)


@pytest.mark.parametrize("sql, totalled, write", [
    ("SELECT COUNT(*), SUM(i) FROM t", True, {"i": -400}),
    ("SELECT COUNT(*) FROM t WHERE s = 'x'", True, {"i": -400, "s": "x"}),
    ("SELECT COUNT(*), SUM(i) FROM t", True, "delete"),
    ("SELECT COUNT(*), SUM(i) FROM t", True, "insert"),
    ("SELECT g, COUNT(*) FROM t GROUP BY g", False, {"i": -400}),
    ("SELECT SUM(f) FROM t", False, {"f": -0.25}),
    ("SELECT MIN(i) FROM t", False, {"i": -400}),
])
def test_a_written_page_alone_is_derived_again(sql, totalled, write):
    """After an update, a delete or an insert on the last page, the plan's
    ``partial`` runs once, over that page's rows, and the result is a fresh
    scan's.  A partial of counts and sums — no grouping, least value or
    FLOAT value list — is also kept as a total, retallied by the page's
    partial before and after: the one partial the walk hands the merge."""
    database, table, rows, ids = _dense_table(
        3, rows=_dense_rows(3 * _DENSE_PER_PAGE - 100)
    )
    executor = Executor(database)
    executor.execute(parse(sql), None)
    plan = _plan(table, parse(sql))
    assert (plan.kept.retally is not None) == totalled
    calls = _spied(plan)
    last = 2 * _DENSE_PER_PAGE
    if write == "delete":
        txn = database.begin()
        table.delete(txn, ids[-3])
        database.commit(txn)
        del rows[-3]
    elif write == "insert":
        row = (-1, "c", 0, 1_000, 0.75, "x")
        txn = database.begin()
        assert table.insert(txn, row).page_no == table._heap.page_numbers[-1]
        database.commit(txn)
        rows.append(row)
    else:
        _write(database, table, rows, ids, last + 11, write)
    assert repr(executor.execute(parse(sql), None).rows) == repr(_over(rows, sql))
    where = sql.partition(" FROM t")[2].partition(" GROUP BY")[0]
    assert calls == [len(_over(rows[last:], f"SELECT * FROM t{where}"))]


def test_a_walk_that_raises_leaves_its_total_exact():
    """A walk derives page 0 again and raises on a row written since on
    page 1, before it reaches page 2, also written since: the total keeps
    page 0's change and the store its mark, so once page 1 no longer raises
    the same literals read as a fresh scan does — page 2 derived again —
    and so do others."""
    rows = [(k, "a", 0, 8, 0.5, "x") for k in range(3 * _DENSE_PER_PAGE)]
    database, table, rows, ids = _dense_table(3, rows=rows)
    executor = Executor(database)
    sql = "SELECT COUNT(*), SUM(i) FROM t WHERE 10 / (i - {n}) > 0"
    raising = _DENSE_PER_PAGE + 5
    assert executor.execute(parse(sql.format(n=7)), None).rows == _over(rows, sql.format(n=7))
    _write(database, table, rows, ids, 5, {"i": 9})
    _write(database, table, rows, ids, 2 * _DENSE_PER_PAGE + 5, {"i": 9})
    _write(database, table, rows, ids, raising, {"i": 7})
    with pytest.raises(ReproError, match="division by zero"):
        executor.execute(parse(sql.format(n=7)), None)
    _write(database, table, rows, ids, raising, {"i": 6})
    for n in (7, 6 - 1):  # 10 / (6 - 7) and 10 / (6 - 5): no raise
        assert executor.execute(parse(sql.format(n=n)), None).rows == _over(
            rows, sql.format(n=n)
        )


def test_a_raise_charges_the_owed_run_before_what_it_examined():
    """Across a binade of the clock, where the order of additions shows:
    a walk that raises on a row written since charges the pages handed
    back before it (each hit, then its records), the raising page's hit,
    then the records its WHERE examined — as one advance each would."""
    rows = [(k, "a", 0, 8, 0.5, "x") for k in range(3 * _DENSE_PER_PAGE)]
    database, table, rows, ids = _dense_table(3, rows=rows)
    executor = Executor(database)
    sql = "SELECT COUNT(*) FROM t WHERE 10 / (i - 7) > 0"
    executor.execute(parse(sql), None)
    _write(database, table, rows, ids, 2 * _DENSE_PER_PAGE + 5, {"i": 7})
    clock, costs = database.clock, database.costs
    # Just short of the next power of two: the charges below cross it.
    clock.advance(2.0 ** math.ceil(math.log2(clock.now + 1)) - clock.now - 0.01)
    expected = clock.now
    for records in (_DENSE_PER_PAGE, _DENSE_PER_PAGE, 0):
        expected += costs.page_read_hit
        for _record in range(records):
            expected += costs.row_scan_cpu
    for _record in range(5 + 1):
        expected += costs.row_scan_cpu
    with pytest.raises(ReproError, match="division by zero"):
        executor.execute(parse(sql), None)
    assert clock.now.hex() == expected.hex()
