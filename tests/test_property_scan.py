"""Property: page-at-a-time reads are the record-at-a-time scan they replaced.

``tests/reference_scan.py`` is the deleted per-record loop.  On random
layouts, holes, NULLs, column subsets and filters it is compared with
``Table.scan`` and ``Table.scan_values`` — the same pairs, ``clock.now`` equal
**to the bit at every yield and at the end**, the same ``rows_scanned`` —
under consumers that charge the clock between rows, change the table they
scan, stop early, and — ``Table.scan_partials`` too — under a filter that
raises on record k.

Every comparison runs each side on its own database built from the same
draw, so the two clocks start equal and nothing is shared.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.engine import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.table import PagePartials
from repro.engine.types import char

from . import reference_scan
from .reference_scan import rowwise
from .test_property_codec import _datatypes
from .test_property_codec import _values_of as _any_value_of


def _values_of(datatype):
    """The codec property's values, with the text cases a page decoder could
    get wrong made certain: empty strings, trailing spaces (decoding strips
    exactly those) and the high bytes a bare ``str.rstrip()`` would take for
    white space (0x85, 0xa0)."""
    if not datatype.is_text:
        return _any_value_of(datatype)
    return st.one_of(
        st.sampled_from(["", " ", "x ", "\xa0", "a\x85", "\x1f "]).filter(
            lambda text: len(text) <= datatype.length
        ),
        _any_value_of(datatype),
    )


#: One wide column now and then: few records per page, so many pages.
_wide = st.one_of(st.none(), st.integers(min_value=900, max_value=2500).map(char))


class Case:
    """One drawn scan: the table's contents and how it is read."""

    def __init__(self, draw):
        types = draw(st.lists(_datatypes, min_size=1, max_size=20))
        wide = draw(_wide)
        if wide is not None:
            types[draw(st.integers(0, len(types) - 1))] = wide
        self.schema = TableSchema(
            "r", [Column(f"c{i}", t) for i, t in enumerate(types)]
        )
        cell = [st.one_of(st.none(), _values_of(t)) for t in types]
        self.rows = draw(st.lists(st.tuples(*cell), max_size=40))
        count = len(self.rows)
        self.holes = draw(st.sets(st.integers(0, max(0, count - 1)), max_size=count))
        width = len(types)
        #: None (the full row), or any ascending subset — the empty one too.
        self.columns = draw(
            st.one_of(
                st.none(),
                st.sets(st.integers(0, width - 1)).map(lambda s: tuple(sorted(s))),
            )
        )
        #: Per record examined, whether the filter keeps it (None: no filter).
        self.keeps = draw(
            st.one_of(st.none(), st.lists(st.booleans(), min_size=count, max_size=count))
        )
        #: The record (1-based, in examination order) the filter raises on.
        self.raises_on = draw(st.one_of(st.none(), st.integers(1, count + 1)))
        #: What the consumer charges the clock after each row it is handed.
        self.charges = draw(
            st.one_of(
                st.none(),
                st.lists(
                    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                    min_size=count, max_size=count,
                ),
            )
        )
        #: After how many rows the consumer closes the scan (None: never).
        self.close_after = draw(st.one_of(st.none(), st.integers(0, count)))
        #: Per row handed over, what the consumer does to the scanned table:
        #: nothing, insert a copy of row 0, or delete the n-th original row.
        self.mutations = draw(
            st.lists(
                st.one_of(
                    st.none(),
                    st.just("insert"),
                    st.integers(0, max(0, count - 1)),
                ),
                min_size=count, max_size=count,
            )
        )

    def build(self):
        """A fresh database holding the drawn table, and the rows' ids."""
        database = Database("test")
        table = database.create_table(self.schema)
        txn = database.begin()
        row_ids = [table.insert(txn, row) for row in self.rows]
        for position in sorted(self.holes):
            if position < len(row_ids):
                table.delete(txn, row_ids[position])
        database.commit(txn)
        live = {
            position: row_id
            for position, row_id in enumerate(row_ids)
            if position not in self.holes
        }
        return database, table, live

    def row_filter(self, raising=False):
        """A fresh per-row predicate following the drawn verdicts."""
        if self.keeps is None:
            return None
        examined = itertools.count(1)

        def keep(values):
            at = next(examined)
            if raising and at == self.raises_on:
                raise ValueError(f"refused record {at}: {values!r}")
            # Past the drawn verdicts (see _consume): keep the record.
            return at > len(self.keeps) or self.keeps[at - 1]

        return keep


_cases = st.composite(lambda draw: Case(draw))()


def _scanned(database):
    return database.metrics.counter("engine.table.rows_scanned", db="test").value


def _consume(case, database, table, live, scan):
    """Drive ``scan`` as the drawn consumer does; everything observable.

    A copy of row 0 inserted into free space on a page the scan has still to
    reach is handed over too, so the scan can yield more rows than were
    drawn; those rows past the drawn lists take no charge and no mutation.
    """
    clock = database.clock
    seen, closed = [], False
    live = dict(live)
    charges = case.charges or ()
    txn = database.begin()
    for step, (row_id, values) in enumerate(scan):
        seen.append((row_id, values, clock.now))
        if case.close_after is not None and step + 1 > case.close_after:
            scan.close()
            closed = True
            break
        if step < len(charges):
            clock.advance(charges[step])
        action = case.mutations[step] if step < len(case.mutations) else None
        if action == "insert":
            table.insert(txn, case.rows[0])
        elif isinstance(action, int) and action in live:
            table.delete(txn, live.pop(action))
    database.commit(txn)
    return seen, closed, clock.now, _scanned(database), table.num_rows


@given(_cases)
@settings(max_examples=300, deadline=None)
def test_scan_is_the_record_at_a_time_loop(case):
    keep = case.row_filter()
    database, table, live = case.build()
    expected = _consume(
        case, database, table, live, reference_scan.scan(table, case.columns, keep)
    )
    keep = case.row_filter()
    database, table, live = case.build()
    actual = _consume(
        case, database, table, live,
        table.scan(case.columns, None if keep is None else rowwise(keep)),
    )
    # Floats compare by ``repr``: -0.0 is not 0.0 here, and a clock reading
    # equal to the bit prints the same.
    assert repr(actual) == repr(expected)


def test_rows_inserted_ahead_of_the_scan_run_past_the_drawn_lists():
    """Three wide records fill a page, so the fourth row leaves two free
    slots on the last page; the consumer's first two copies of row 0 land
    there, and the scan hands both over after the drawn rows."""
    case = Case.__new__(Case)
    case.schema = TableSchema("r", [Column("c0", char(2500))])
    case.rows = [("a",), ("b",), ("c",), ("d",)]
    case.holes, case.columns, case.raises_on, case.close_after = set(), None, None, None
    case.keeps = [True, False, True, True]
    case.charges = [0.5] * 4
    case.mutations = ["insert"] * 4
    outcomes = []
    for read in ("reference", "scan"):
        keep = case.row_filter()
        database, table, live = case.build()
        rows = (
            reference_scan.scan(table, case.columns, keep)
            if read == "reference"
            else table.scan(case.columns, rowwise(keep))
        )
        outcomes.append(_consume(case, database, table, live, rows))
    seen = outcomes[0][0]
    assert [values for _rid, values, _at in seen] == [
        ("a",), ("c",), ("d",), ("a",), ("a",)
    ]
    assert repr(outcomes[1]) == repr(outcomes[0])


@given(_cases, st.booleans())
@settings(max_examples=300, deadline=None)
def test_the_values_only_read_is_the_scan_without_row_ids(case, probing):
    """Run to the end, by a consumer that leaves the clock alone or charges
    it the scan's own constant per row (the join probe)."""
    outcomes = []
    for read in ("reference", "values"):
        keep = case.row_filter()
        database, table, _live = case.build()
        clock, probe_cpu = database.clock, database.costs.row_scan_cpu
        if read == "reference":
            rows = (v for _rid, v in reference_scan.scan(table, case.columns, keep))
        else:
            rows = table.scan_values(
                case.columns, None if keep is None else rowwise(keep)
            )
        seen = []
        for values in rows:
            seen.append(values)
            if probing:
                clock.advance(probe_cpu)
        outcomes.append((seen, clock.now, _scanned(database)))
    assert repr(outcomes[1]) == repr(outcomes[0])


@given(
    _cases,
    st.sampled_from(["scan", "scan_values", "scan_partials", "kept scan_partials"]),
)
@settings(max_examples=300, deadline=None)
def test_a_filter_that_raises_on_record_k_has_examined_k_records(case, read):
    """The same record raises, with the clock and the count where the loop
    had them.  A page is filtered before its first row is handed over, so
    the rows kept on the raising page before record k are not delivered.
    The page-wise reads are sampled alike; ``scan_partials`` hands over each
    page's rows as its partial, with a memo (a store the walk fills) or
    without."""
    outcomes = []
    for side in ("reference", read):
        keep = case.row_filter(raising=True)
        database, table, _live = case.build()
        page_filter = None if keep is None else rowwise(keep)
        if side == "reference":
            rows = reference_scan.scan(table, case.columns, keep)
        elif read in ("scan", "scan_values"):
            rows = getattr(table, read)(case.columns, page_filter)
        else:
            memo = (PagePartials(), None) if read.startswith("kept") else None
            # Called as the rows are first asked for: with a memo the walk
            # is done, or raises, in the call.
            rows = (
                row
                for _call in range(1)
                for part in table.scan_partials(case.columns, page_filter, list, memo)
                for row in part
            )
        seen, refused = [], None
        try:
            for row in rows:
                seen.append(row)
        except ValueError as error:
            refused = str(error)
        outcomes.append((seen, refused, database.clock.now, _scanned(database)))
    (expected, *loop), (seen, *paged) = outcomes
    assert repr(paged) == repr(loop)
    if read != "scan":
        expected = [values for _row_id, values in expected]
    assert seen == expected[: len(seen)]
    if loop[0] is None:
        assert seen == expected


#: Totals where the per-binade computation of ``advance_each`` has an edge:
#: anywhere, zero, subnormal or in the lowest binades, and a few ulps short
#: of a power of two (so that a run crosses into the next binade).
_STARTS = st.one_of(
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    st.sampled_from([0.0, 5e-324, 1e-310, 2.0**-1022, 2.0**-1021, 2.0**-1020]),
    st.floats(min_value=0.0, max_value=1e-300),
    st.builds(
        lambda exponent, short: 2.0**exponent - short * math.ulp(2.0**exponent),
        st.integers(-40, 50),
        st.integers(1, 200),
    ),
)


@st.composite
def _charge_for(draw, start):
    """A charge aimed at ``start``'s ulp: any, a tie ``(m + 1/2) ulp``, below
    half an ulp, or a fraction of an ulp off a multiple of it (whose last
    addition before a binade edge rounds differently on either side)."""
    ulp = math.ulp(start)
    off_a_multiple = st.builds(
        lambda m, f: (m + f) * ulp,
        st.integers(0, 64),
        st.sampled_from([0.125, 0.25, 0.375, 0.625, 0.75, 0.875]),
    )
    return draw(st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(0, 16).map(lambda m: (m + 0.5) * ulp),
        st.floats(min_value=0.0, max_value=0.499).map(lambda f: f * ulp),
        off_a_multiple,
        off_a_multiple,
    ))


@st.composite
def _runs(draw):
    """A start, a charge and a run length: any, up to 10^5, or the length
    whose last addition (give or take one) passes the next power of two."""
    start = draw(_STARTS)
    charge = draw(_charge_for(start))
    # How many additions reach the next power of two (if 10^5 or fewer do).
    edge, total, top = 0, start, 2.0 ** math.frexp(start)[1]
    while total < top and edge <= 100_000 and charge > 0:
        total += charge
        edge += 1
    times = st.one_of(st.integers(0, 400), st.integers(0, 100_000))
    if total >= top:
        aimed = st.integers(max(0, edge - 1), edge + 1)
        times = st.one_of(aimed, aimed, times)
    return start, charge, draw(times)


def _advances(clock, charge, times):
    """``times`` calls of ``advance``: what ``advance_each`` must equal."""
    for _ in range(times):
        clock.advance(charge)
    return clock.now


@given(_runs())
@settings(max_examples=300, deadline=None)
def test_advance_each_is_that_many_advances(run):
    start, charge, times = run
    one_by_one, at_once = VirtualClock(), VirtualClock()
    for clock in (one_by_one, at_once):
        clock.advance(start)
    expected = _advances(one_by_one, charge, times)
    assert repr(at_once.advance_each(charge, times)) == repr(expected)
    assert repr(at_once.now) == repr(expected)


def test_advance_each_across_a_binade_edge():
    # Every run that ends one addition short of, at, or one past the first
    # addition reaching a power of two, from a few ulps below it, with a
    # charge a fraction of an ulp off a multiple: where the last addition
    # rounds on the coarser grid above the edge.  A draw finds few of these.
    top = 1024.0
    for short, m, f in itertools.product(
        range(1, 40), range(1, 12), (0.125, 0.25, 0.375, 0.625, 0.75, 0.875)
    ):
        start = top - short * math.ulp(top)
        charge = (m + f) * math.ulp(start)
        edge, total = 0, start
        while total < top:
            total += charge
            edge += 1
        for times in (edge - 1, edge, edge + 1):
            one_by_one, at_once = VirtualClock(), VirtualClock()
            for clock in (one_by_one, at_once):
                clock.advance(start)
            expected = _advances(one_by_one, charge, times)
            assert repr(at_once.advance_each(charge, times)) == repr(expected), (
                short, m, f, times
            )


@given(
    _STARTS,
    st.lists(
        st.floats(min_value=0.0, max_value=1e-2, allow_nan=False), min_size=1, max_size=3
    ),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3_000)), max_size=25),
)
@settings(max_examples=200, deadline=None)
def test_advance_each_on_one_clock_is_that_many_advances(start, charges, runs):
    # One clock, charges repeated and interleaved: the kept (x, top, step)
    # is met again after the total has left its binade, and under another x.
    one_by_one, at_once = VirtualClock(), VirtualClock()
    for clock in (one_by_one, at_once):
        clock.advance(start)
    for which, times in runs:
        charge = charges[which % len(charges)]
        expected = _advances(one_by_one, charge, times)
        assert repr(at_once.advance_each(charge, times)) == repr(expected)


def test_advance_each_is_not_one_addition_of_the_product():
    # The reason it exists: 0.1 ten times over is not 0.1 * 10.
    clock = VirtualClock()
    clock.advance_each(0.1, 10)
    assert clock.now == 0.9999999999999999 != 0.1 * 10


@pytest.mark.parametrize("charge, times", [(-1.0, 3), (1.0, -1), (-0.5, 0)])
def test_advance_each_rejects_negatives(charge, times):
    clock = VirtualClock()
    clock.advance(5.0)
    with pytest.raises(ValueError):
        clock.advance_each(charge, times)
    assert clock.now == 5.0


@st.composite
def _page_runs(draw):
    """A start, a page's charge and a record's, and the pages' record
    counts: short pages or long ones, zero counts, no page at all, and runs
    whose pages and records cross the next power of two or several."""
    start = draw(st.one_of(_STARTS, st.floats(min_value=1e12, max_value=1e300)))
    head, each = draw(_charge_for(start)), draw(_charge_for(start))
    counts = draw(st.one_of(
        st.lists(st.integers(0, 100), max_size=80),
        st.lists(st.integers(0, 3_000), max_size=6),
        st.lists(st.just(0), max_size=20),
        st.just([]),
    ))
    return start, head, each, counts


def _page_advances(clock, head, each, counts):
    """Per count, ``advance(head)`` and then ``count`` of ``advance(each)``:
    what ``advance_runs`` must equal."""
    for count in counts:
        clock.advance(head)
        _advances(clock, each, count)
    return clock.now


@given(_page_runs())
@settings(max_examples=200, deadline=None)
def test_advance_runs_is_a_hit_and_its_records_per_page(run):
    start, head, each, counts = run
    one_by_one, at_once = VirtualClock(), VirtualClock()
    for clock in (one_by_one, at_once):
        clock.advance(start)
    expected = _page_advances(one_by_one, head, each, counts)
    assert at_once.advance_runs(head, each, counts).hex() == expected.hex()
    assert at_once.now.hex() == expected.hex()


def test_advance_runs_across_binade_edges():
    # From a few ulps below a power of two, runs that end just short of it,
    # at it, just past it, and — with charges of hundreds — several binades
    # on; charges a fraction of an ulp off a multiple of it (rounding
    # differently above the edge) and ties.
    top = 1024.0
    for short, m, f in itertools.product(
        range(1, 30, 7), range(0, 9, 4), (0.125, 0.5, 0.625, 0.875)
    ):
        start = top - short * math.ulp(top)
        ulp = math.ulp(start)
        for head, each in (
            ((m + f) * ulp, (1 + f) * ulp), ((m + 1) * ulp, f * ulp), (700.0 + f, 0.3)
        ):
            for counts in (
                [short - 1], [short], [short + 1], [0] * (short + 1), [1, 0, 2] * short,
                [3_000, 2], [7] * 12,
            ):
                one_by_one, at_once = VirtualClock(), VirtualClock()
                for clock in (one_by_one, at_once):
                    clock.advance(start)
                expected = _page_advances(one_by_one, head, each, counts)
                assert at_once.advance_runs(head, each, counts).hex() == (
                    expected.hex()
                ), (short, m, f, head, each, counts)


@pytest.mark.parametrize(
    "head, each, counts", [(-1.0, 1.0, [1]), (1.0, -1.0, [1]), (1.0, 1.0, [2, -1])]
)
def test_advance_runs_rejects_negatives(head, each, counts):
    clock = VirtualClock()
    clock.advance(5.0)
    with pytest.raises(ValueError):
        clock.advance_runs(head, each, counts)
    assert clock.now == 5.0
