"""Property: a scan bounded by its WHERE's page bounds is the unbounded scan.

An UPDATE or DELETE whose WHERE is made only of ``column OP literal``
conjuncts the evaluator compares without error carries page bounds (its
``repro.sql.planner.sargs`` are the whole WHERE), and its scan does not run
the filter over a page whose sorted column values (``Page.column_values``)
hold none inside them.  Here every statement runs on two databases built alike, one with the
bounds and one with them taken away, through the text door or from its
values (``Session.execute_prepared``, which is also how literals no SQL
text writes — negatives, -0.0, NaN, infinities — reach a statement).  Both
must agree after every statement: the outcome (or the error, to the
message), ``clock.now`` by ``repr``, the heap's records, the whole WAL (so
the RowIds affected, in order) and every registry counter.  And the bounds
must be exact: the filter runs over just the pages that hold, for each
bounded column, a value satisfying every conjunct on it (counted by
evaluating the conjuncts in Python on a third twin).

A WHERE with a conjunct the evaluator may refuse (a string against a
number) carries no bounds at all, wherever that conjunct stands, and fails
at the same row either way.

The exact-count test pins what the bounds are for: a 10-row range over the
unindexed ``part_ref`` of a 2,000-row PARTS table runs the filter over at
most two pages, and a SELECT with the same WHERE (no bounds) over all.
"""

import math
import operator
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.engine.page import slots_per_page
from repro.engine.schema import Column, TableSchema
from repro.engine.table import Table, _excluded
from repro.engine.types import FLOAT, INTEGER, char
from repro.obs.metrics import MetricsRegistry
from repro.sql import executor as executor_module
from repro.sql.parser import parse
from repro.sql.planner import Sarg, settle_bounds
from repro.workloads.records import PartsGenerator, parts_schema

_INTS = st.integers(-4, 4)
_FLOATS = st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, 2.5, -1.5, 3.0, math.nan, math.inf, -math.inf]
)
_TEXTS = st.sampled_from(["", "a", "ab", "b", "ba", "zz"])
#: What rows hold: mostly spread wide, so a page holds a given literal's
#: value now and then, not always — and an UPDATE that writes one matters.
_STORED = {
    "i": st.one_of(st.integers(-60, 60), _INTS),
    "f": st.one_of(*[st.integers(-60, 60).map(float)] * 3, _FLOATS),
    "c": st.one_of(st.text("ab z", max_size=3), _TEXTS),
}
#: Per bounded column: its values, and what stands in the text for a
#: literal of each class (any value of the class binds to that shape).
_COLUMNS = {"i": _INTS, "f": _FLOATS, "c": _TEXTS}
_STAND_IN = {int: "1", float: "1.5", str: "'x'"}
_OPS = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


def _literal(draw, column):
    """A literal a column is compared with: of its own kind, or (numbers)
    of the other numeric kind."""
    if column == "c":
        return draw(_TEXTS)
    return draw(st.one_of(_INTS, _FLOATS))


def _written(value):
    """The SQL text of a literal, where a text can write it as one literal."""
    if isinstance(value, str):
        return f"'{value}'"
    if value < 0 or math.copysign(1.0, value) < 0 or not math.isfinite(value):
        return None  # a minus sign is an operator; NaN and inf have no spelling
    return repr(value)


@st.composite
def cases(draw):
    pad = draw(st.integers(300, 1200))
    schema = TableSchema(
        "t",
        [
            Column("id", INTEGER),
            Column("i", INTEGER),
            Column("f", FLOAT),
            Column("c", char(3)),
            Column("pad", char(pad)),
        ],
    )
    per_page = slots_per_page(schema.record_size)
    count = draw(st.integers(2 * per_page + 1, 4 * per_page))
    def row(n, pad):
        return (n, *(draw(st.none() | _STORED[name]) for name in "ifc"), pad)

    rows = [row(n, "p") for n in range(count)]
    freed = draw(st.sets(st.integers(0, count - 1), max_size=count // 2))
    refill = [row(count + n, "q") for n in range(draw(st.integers(0, len(freed))))]
    statements = draw(st.lists(statement(), min_size=1, max_size=8))
    return schema, rows, sorted(freed), refill, statements


@st.composite
def statement(draw):
    """``(the text with a {} per literal, the literals in order, door,
    its conjuncts as (column, op, literal) — None when one may raise)``."""
    pieces = []  # (text with {} per literal, its literals)
    if draw(st.booleans()):
        target = draw(st.sampled_from(sorted(_COLUMNS)))
        head = (f"UPDATE t SET {target} = {{}}", [draw(_COLUMNS[target])])
    else:
        head = ("DELETE FROM t", [])
    conjuncts = []
    for _ in range(draw(st.integers(1, 4))):
        column = draw(st.sampled_from(sorted(_COLUMNS)))
        op = draw(st.sampled_from(sorted(_OPS)))
        value = _literal(draw, column)
        conjuncts.append((column, op, value))
        if draw(st.booleans()):
            pieces.append((f"{column} {op} {{}}", [value]))
        else:
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
            pieces.append((f"{{}} {flipped} {column}", [value]))
    if draw(st.booleans()):
        # A string against a number: refused by the evaluator on any
        # non-NULL value, so this WHERE may carry no bounds.
        wrong = draw(st.sampled_from([("c = {}", 1), ("i = {}", "x"), ("{} < c", 1.5)]))
        pieces.insert(draw(st.integers(0, len(pieces))), (wrong[0], [wrong[1]]))
        conjuncts = None
    where = " AND ".join(text for text, _values in pieces)
    values = head[1] + [value for _text, literals in pieces for value in literals]
    door = draw(st.sampled_from(["text", "prepared"]))
    return f"{head[0]} WHERE {where}", values, door, conjuncts


def _admitting_pages(db, conjuncts):
    """How many heap pages hold, for each bounded column, a value that
    satisfies every conjunct on that column — the pages a bounded scan must
    run its filter over, and no more."""
    table = db.table("t")
    positions = {name: table.schema.column_index(name) for name, _o, _v in conjuncts}
    decode = table.schema.codec.decode
    count = 0
    for _page_no, _slots, records in table._heap.pages():
        rows = [decode(record) for record in records]
        count += all(
            any(
                row[at] is not None
                and all(_OPS[op](row[at], value) for name, op, value in conjuncts
                        if name == column)
                for row in rows
            )
            for column, at in positions.items()
        )
    return count


def _build(schema, rows, freed, refill):
    db = Database("w", metrics=MetricsRegistry())
    table = db.create_table(schema)
    txn = db.begin()
    ids = [table.insert(txn, row) for row in rows]
    for at in freed:
        table.delete(txn, ids[at])
    for row in refill:
        table.insert(txn, row)
    db.commit(txn)
    return db, db.connect()


def _run(session, pattern, values, door):
    """Run one statement: its outcome, or its error's type and message.

    Through the text door when each literal has a spelling; from its values
    otherwise, bound to the template of a text of the same shape."""
    written = [_written(value) for value in values]
    try:
        if door == "text" and None not in written:
            result = session.execute(pattern.format(*written))
        else:
            binding = parse(pattern.format(*(_STAND_IN[type(v)] for v in values))).binding
            assert list(map(type, binding.values)) == list(map(type, values))
            result = session.execute_prepared(binding.template, [values])
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc).__name__, str(exc)
    return result.rows_affected, result.plan


def _state(db):
    table = db.table("t")
    return (
        repr(db.clock.now),
        list(table._heap.scan()),
        [
            (r.lsn, r.kind, r.txn_id, r.table, r.row_id, r.before, r.after)
            for r in db.log._active
        ],
        db.metrics.snapshot(),
    )


@settings(max_examples=150, deadline=None)
@given(cases())
def test_bounded_scans_are_unbounded_scans(case):
    schema, rows, freed, refill, statements = case
    bounded, bounded_session = _build(schema, rows, freed, refill)
    plain, plain_session = _build(schema, rows, freed, refill)
    assert _state(bounded) == _state(plain)
    # Reading pages moves the clock: the pages a statement should filter are
    # counted on a third twin, which follows the other two.
    oracle, oracle_session = _build(schema, rows, freed, refill)
    settle = executor_module.settle_bounds
    settled = []

    def spy(found, literals):
        settled.append(settle(found, literals))
        return settled[-1]

    for sql, values, door, conjuncts in statements:
        with mock.patch.object(executor_module, "settle_bounds", lambda f, v: []):
            expected = _run(plain_session, sql, values, door)
        settled.clear()
        if conjuncts is not None:
            admitting = _admitting_pages(oracle, conjuncts)
        _run(oracle_session, sql, values, door)
        with mock.patch.object(executor_module, "settle_bounds", spy), _counted() as filtered:
            outcome = _run(bounded_session, sql, values, door)
        assert outcome == expected, sql
        assert _state(bounded) == _state(plain), sql
        if conjuncts is None:
            assert settled == [[]], sql
        else:
            assert len(filtered) == admitting, sql


def _parts(rows):
    """A PARTS table of ``rows`` rows whose blocks of 10 were deleted and
    refilled out of order, as the scan workload leaves it."""
    db = Database("src", metrics=MetricsRegistry())
    session = db.connect()
    db.create_table(parts_schema())
    generator = PartsGenerator(seed=7)
    table = db.table("parts")
    txn = db.begin()
    for row in generator.rows(rows):
        table.insert(txn, row)
    db.commit(txn)
    for low in range(0, rows, 170):  # free a block on many pages ...
        session.execute(f"DELETE FROM parts WHERE part_ref >= {low} AND part_ref < {low + 10}")
    next_id = rows
    for _ in range(0, rows, 170):  # ... and refill the holes with new ids
        txn = db.begin()
        for row in generator.rows(10, start_id=next_id):
            table.insert(txn, row)
        db.commit(txn)
        next_id += 10
    return db, session


@contextmanager
def _counted():
    """Count the pages a scan's filter is run over, one entry per page."""
    calls = []
    saved = {name: getattr(Table, name) for name in ("scan", "scan_values")}

    def counting(read):
        def counted(self, columns=None, keep=None, *rest):
            if keep is not None:
                inner = keep

                def keep(rows):
                    calls.append(1)
                    return inner(rows)

            return read(self, columns, keep, *rest)

        return counted

    try:
        for name, read in saved.items():
            setattr(Table, name, counting(read))
        yield calls
    finally:
        for name, read in saved.items():
            setattr(Table, name, read)


def test_a_range_of_ten_rows_runs_its_filter_on_two_pages():
    db, session = _parts(2_000)
    pages = len(db.table("parts")._heap._page_nos)
    assert pages >= 20
    with _counted() as calls:
        where = "part_ref >= 1000 AND part_ref < 1010"
        update = session.execute(f"UPDATE parts SET quantity = 7 WHERE {where}")
        assert update.rows_affected == 10 and len(calls) <= 2
        calls.clear()
        where = "part_ref >= 2010 AND part_ref < 2020"  # a refilled block
        assert session.execute(f"DELETE FROM parts WHERE {where}").rows_affected == 10
        assert len(calls) <= 2
        calls.clear()
        where = "part_ref >= 1000 AND part_ref < 1010"
        assert len(session.query(f"SELECT part_id FROM parts WHERE {where}")) == 10
        assert len(calls) == pages


def test_settled_bounds_keep_the_tightest_side():
    found = [
        Sarg(0, None, ">=", 3, None), Sarg(0, None, ">", 3.0, None),  # a tie: exclusive
        Sarg(0, None, "<=", 9, None), Sarg(0, None, "<", 7, 1),  # the literal's slot
        Sarg(2, None, "=", "ab", None), Sarg(2, None, ">=", "ab", None),
        Sarg(3, None, ">", 5, None), Sarg(3, None, "<", 2, None),  # empty
    ]
    assert settle_bounds(found, ("-", 7)) == [
        (0, 3, 7, False, False), (2, "ab", "ab", True, True), (3, 5, 2, False, False),
    ]


def test_a_nan_literal_leaves_no_value_inside():
    for op in ("=", "<", "<=", ">", ">="):
        bounds = settle_bounds(
            [Sarg(0, None, "<=", 2.0, None), Sarg(0, None, op, math.nan, None)], ()
        )
        assert _excluded(_Listed([-1.0, 0.0, 2.0]), None, bounds), op


class _Listed:
    """A page that holds these sorted values in every column."""

    def __init__(self, values):
        self.values = values

    def column_values(self, decode, at):
        return self.values
