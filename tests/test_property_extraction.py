"""Property: the run-charging §3 extraction passes are the record-at-a-time
loops they replaced.

``tests/reference_extraction.py`` keeps the deleted loops.  On random tables —
record widths from a few to hundreds of records per page, freed slots filled
again out of key order, a buffer pool small enough to evict mid-dump — and
random churn between snapshots (committed and rolled-back transactions),
each pass is compared with its reference: the same rows and records in the
same order, ``clock.now`` equal **to the bit** after every pass, the same
sequence of single additions on the clock (a recording clock expands every
run and cycle), and every counter of the database's registry
(``rows_scanned``, ``extract.*``, the buffer and disk counts) equal at the
end.

Each side runs on its own database built from the same draw, so the two
clocks start equal and nothing is shared — except that the new side diffs a
snapshot twice (as the new side of one differential and the old side of the
next), so its kept key order is met again.

The clock's cycle charge itself is held to its loop of ``advance`` calls on
the edge set ``advance_each`` is tested on.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.engine import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.snapshots import take_snapshot
from repro.engine.types import FLOAT, INTEGER, char
from repro.engine.utilities import ascii_dump_table, export_table
from repro.extraction import LogExtractor
from repro.extraction.snapshot_diff import diff_naive, diff_sort_merge, diff_window

from . import reference_extraction as reference
from .test_property_scan import _STARTS, _charge_for


class RecordingClock(VirtualClock):
    """A clock that also keeps every addition it performs, expanded: what a
    run or a cycle charges is the sequence of single additions it stands
    for.  Two passes that agree on it perform the same additions in the same
    order, whether or not a reordering would have changed the total's bits."""

    def __init__(self):
        super().__init__()
        self.additions = []
        self._inside_cycle = False

    def advance(self, milliseconds):
        self.additions.append(milliseconds)
        return super().advance(milliseconds)

    def advance_each(self, milliseconds, times):
        if not self._inside_cycle:
            self.additions.extend([milliseconds] * times)
        return super().advance_each(milliseconds, times)

    def advance_cycle(self, charges, times):
        self.additions.extend(list(charges) * times)
        self._inside_cycle = True
        try:
            return super().advance_cycle(charges, times)
        finally:
            self._inside_cycle = False


class Case:
    """One drawn table history: a load, freed slots, and three rounds of
    churn (which refill them) between snapshots, each transaction committed
    or rolled back."""

    def __init__(self, draw):
        self.width = draw(st.sampled_from([1, 12, 60, 400]))
        self.buffer_pages = draw(st.sampled_from([3, 4096]))
        #: Where the clock starts: a total with a full mantissa, so that a
        #: reordered or merged addition shows in its last bits.
        self.start = draw(st.floats(min_value=0.0, max_value=1e7))
        size = draw(st.integers(0, 200))
        keys = draw(st.lists(
            st.integers(0, 10_000), unique=True, min_size=size, max_size=size
        ))
        self.load = [self.row(draw, key) for key in keys]
        self.holes = draw(st.sets(st.sampled_from(keys), max_size=len(keys)) if keys
                          else st.just(set()))
        self.rounds = [draw(self.churn()) for _ in range(3)]
        self.window = draw(st.integers(1, 40))

    def row(self, draw, key):
        text = draw(st.text(alphabet="abc|\\ ", max_size=min(self.width, 8)))
        value = draw(st.one_of(st.none(), st.floats(allow_nan=False, width=32)))
        return (key, text, value)

    def churn(self):
        """Transactions of (op, key) steps and whether each commits."""
        step = st.tuples(
            st.sampled_from(["insert", "update", "delete"]),
            st.integers(0, 10_400),
            st.text(alphabet="xyz", max_size=min(self.width, 3)),
        )
        return st.lists(
            st.tuples(st.lists(step, max_size=12), st.booleans()), max_size=5
        )

    def schema(self):
        return TableSchema(
            "t",
            [
                Column("k", INTEGER, nullable=False),
                Column("s", char(self.width)),
                Column("f", FLOAT),
            ],
            primary_key="k",
        )

    def build(self):
        clock = RecordingClock()
        clock.advance(self.start)
        database = Database(
            "x", clock=clock, buffer_pages=self.buffer_pages, archive_mode=True
        )
        table = database.create_table(self.schema())
        ids = {}
        txn = database.begin()
        for row in self.load:
            ids[row[0]] = table.insert(txn, row)
        database.commit(txn)
        txn = database.begin()
        for key in sorted(self.holes):
            table.delete(txn, ids.pop(key))
        database.commit(txn)
        return database, table, ids

    def run_round(self, database, table, ids, steps):
        for actions, commits in steps:
            txn = database.begin()
            before = dict(ids)
            for op, key, text in actions:
                if op == "insert" and key not in ids:
                    ids[key] = table.insert(txn, (key, text, None))
                elif op == "update" and key in ids:
                    table.update(txn, ids[key], {"s": text})
                elif op == "delete" and key in ids:
                    table.delete(txn, ids.pop(key))
            if commits:
                database.commit(txn)
            else:
                database.abort(txn)
                ids.clear()
                ids.update(before)


_cases = st.composite(lambda draw: Case(draw))()

NEW = {
    "take_snapshot": take_snapshot,
    "export_table": export_table,
    "ascii_dump_table": ascii_dump_table,
    "naive": diff_naive,
    "sort_merge": diff_sort_merge,
    "window": diff_window,
    "log": lambda database, tables: LogExtractor(database, tables).extract(),
}
OLD = {
    "take_snapshot": reference.take_snapshot,
    "export_table": reference.export_table,
    "ascii_dump_table": reference.ascii_dump_table,
    "naive": reference.diff_naive,
    "sort_merge": reference.diff_sort_merge,
    "window": reference.diff_window,
    "log": reference.extract_log,
}


def _history(case, passes):
    """Run the drawn history through ``passes``; everything observable."""
    database, table, ids = case.build()
    clock = database.clock
    seen = []

    def note(what, value):
        seen.append((what, value, repr(clock.now)))

    def log_pass():
        # One extractor per pass, as the reference holds nothing over.
        result = passes["log"](database, {"t"})
        batch = result.batches.get("t")
        note("log", (
            result.records_scanned, result.changes_decoded,
            result.uncommitted_skipped, None if batch is None else batch.records,
        ))

    log_pass()
    snapshots = [passes["take_snapshot"](database, "t")]
    note("snapshot", snapshots[0].rows)
    for steps in case.rounds:
        case.run_round(database, table, ids, steps)
        snapshots.append(passes["take_snapshot"](database, "t"))
        note("snapshot", snapshots[-1].rows)
        old, new = snapshots[-2:]
        for name in ("naive", "sort_merge"):
            note(name, passes[name](database, old, new).records)
        note("window", passes["window"](database, old, new, case.window).records)
        log_pass()
    note("export", passes["export_table"](database, "t").records)
    note("ascii", passes["ascii_dump_table"](database, "t").lines)
    return seen, clock.additions, database.metrics.snapshot()


@given(_cases)
@settings(max_examples=40, deadline=None)
def test_the_extraction_passes_are_their_record_at_a_time_loops(case):
    """About 4 s: each example runs the history twice, and the reference
    naive differential charges one ``advance`` per comparison (up to 200²
    per round, three rounds)."""
    expected_seen, expected_additions, expected_metrics = _history(case, OLD)
    actual_seen, actual_additions, actual_metrics = _history(case, NEW)
    assert actual_seen == expected_seen
    assert actual_additions == expected_additions
    assert actual_metrics == expected_metrics


# ------------------------------------------------------------ advance_cycle
def _rounds(clock, charges, times):
    """``times`` rounds of one ``advance`` per charge: what ``advance_cycle``
    must equal."""
    for _ in range(times):
        for charge in charges:
            clock.advance(charge)
    return clock.now


@st.composite
def _cycles(draw):
    """A start, a cycle of one to four charges aimed at its ulp (ties,
    charges below half an ulp, a fraction of an ulp off a multiple) and a
    run length: any, or up to 10^5."""
    start = draw(_STARTS)
    charges = draw(st.lists(_charge_for(start), min_size=1, max_size=4))
    times = draw(st.one_of(st.integers(0, 40), st.integers(0, 100_000)))
    return start, charges, times


@given(_cycles())
@settings(max_examples=100, deadline=None)
def test_advance_cycle_is_its_rounds_of_advances(cycle):
    start, charges, times = cycle
    one_by_one, at_once = VirtualClock(), VirtualClock()
    for clock in (one_by_one, at_once):
        clock.advance(start)
    expected = _rounds(one_by_one, charges, times)
    assert repr(at_once.advance_cycle(charges, times)) == repr(expected)
    assert repr(at_once.now) == repr(expected)


def test_advance_cycle_across_a_binade_edge():
    # A cycle whose additions cross a power of two mid-cycle, from a few ulps
    # below it, with one charge below half an ulp and one a tie on the lower
    # grid: the coarser grid above the edge rounds both differently.
    top = 1024.0
    for short in range(1, 30):
        start = top - short * math.ulp(top)
        ulp = math.ulp(start)
        for charges in ((0.4 * ulp, 1.5 * ulp), (2.5 * ulp, 0.25 * ulp, ulp)):
            for times in range(0, 2 * short + 3):
                one_by_one, at_once = VirtualClock(), VirtualClock()
                for clock in (one_by_one, at_once):
                    clock.advance(start)
                expected = _rounds(one_by_one, charges, times)
                assert repr(at_once.advance_cycle(charges, times)) == repr(
                    expected
                ), (short, charges, times)


def test_advance_cycle_from_zero_and_subnormal_totals():
    for start in (0.0, 5e-324, 1e-310, 2.0**-1022):
        for charges in ((0.0,), (5e-324, 0.0), (1e-320, 3e-321, 0.1)):
            one_by_one, at_once = VirtualClock(), VirtualClock()
            for clock in (one_by_one, at_once):
                clock.advance(start)
            expected = _rounds(one_by_one, charges, 1000)
            assert repr(at_once.advance_cycle(charges, 1000)) == repr(expected)


def test_advance_cycle_rejects_a_negative_charge_or_count():
    clock = VirtualClock()
    for charges, times in (((1.0, -1.0), 1), ((1.0,), -1)):
        with pytest.raises(ValueError):
            clock.advance_cycle(charges, times)
    assert clock.now == 0.0
