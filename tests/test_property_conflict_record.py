"""Property test: the commutation record proves what fresh proofs prove.

For random windows over one table — multi-statement transactions, in-group
inversions, ops carrying before images (an empty image included), DELETEs a
view replays differently, time-dependent and volatile statements, a second
table, a transaction the graph was never built over, and the structural
widening on or off — the conflict graph and the schedule certifier reading
one :class:`~repro.analysis.conflict.CommutationRecord` must agree with
``tests/reference_conflict.py``, where every verdict is proved afresh:

* the graph's edges and components equal the deleted pairwise loop's;
* every ``Certificate.to_dict()`` — pairs checked, conflicting pairs,
  reorder checks, findings with their witnesses — equals the one a record
  that keeps nothing yields, on a first certification and on a second one
  that reads only kept cells;
* ``verify_compaction``'s certificate equals the one its fresh twin yields.

And the two judges of a schedule agree: on a 2–3 lane schedule of such a
window, the transaction pairs the interference sanitizer's replay flags are
the pairs the certifier rejects with ``RACE001``.
"""

import dataclasses
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import OpDeltaAnalyzer
from repro.analysis.certify import (
    InterferenceSanitizer,
    LaneSchedule,
    certify,
    verify_compaction,
)
from repro.analysis.conflict import CommutationRecord, _candidates
from repro.analysis.safety import commutes
from repro.compaction.report import ReorderObligation
from repro.core.opdelta import OpDelta, OpDeltaTransaction, OpKind
from repro.core.selfmaint import ViewDefinition
from repro.sql.parser import parse

from .reference_conflict import FreshRecord, reference_graph

KEYS = {"t": "id", "u": "id"}
COLUMNS = {"t": ("id", "a", "b", "c"), "u": ("id", "a", "b", "c")}
#: A DELETE on ``id`` is rewritten onto it; one on ``c`` replays its image.
VIEWS = (
    ViewDefinition(
        name="narrow", base_table="t", columns=("id", "a", "b"), key_column="id"
    ),
)
ANALYZER = OpDeltaAnalyzer(views=VIEWS, key_columns=KEYS, table_columns=COLUMNS)

TEMPLATES = (
    "UPDATE t SET a = {v} WHERE id >= {lo} AND id < {hi}",
    "UPDATE t SET a = a + {v} WHERE id = {lo}",
    "UPDATE t SET b = {v} WHERE b = 7 AND id >= {lo} AND id < {hi}",
    "UPDATE t SET a = {v} WHERE b <> 7 AND id >= {lo} AND id < {hi}",
    "UPDATE t SET c = {v} WHERE b = 7 AND id >= {lo} AND id < {hi}",
    # Two contradicting conjunct pairs, one over the column the first
    # assigns: only the witness found first in one orientation proves them.
    "UPDATE t SET b = {v} WHERE c = 1 AND b = 7 AND id >= {lo} AND id < {hi}",
    "UPDATE t SET a = {v} WHERE b <> 7 AND c <> 1 AND id >= {lo} AND id < {hi}",
    "DELETE FROM t WHERE id = {lo}",
    "DELETE FROM t WHERE c >= {lo} AND c < {hi}",
    "INSERT INTO t (id, a, b, c) VALUES ({key}, {v}, 1, 2)",
    "UPDATE t SET a = NOW() WHERE id = {lo}",
    "UPDATE t SET c = RANDOM() WHERE id = {lo}",
    "DELETE FROM u WHERE id = {lo}",
    # A multi-row INSERT, its second row inside the UPDATE ranges.
    "INSERT INTO t (id, a, b, c) VALUES ({key}, {v}, 1, 2), ({hi}, 0, 1, {v})",
    # NULL keys; string keys beside the integer ones on ``u``, whose keys
    # then do not order (on ``t`` they would leave no window to sweep).
    "INSERT INTO t (id, a, b, c) VALUES (NULL, {v}, 1, 2)",
    "DELETE FROM t WHERE id IS NULL",
    "UPDATE u SET a = {v} WHERE id = 'k{lo}'",
    "INSERT INTO u (id, a, b, c) VALUES ('k{lo}', {v}, 1, 2)",
    # Key-assigning UPDATEs.
    "UPDATE t SET id = {key} WHERE id = {lo}",
    "UPDATE t SET id = id + 1 WHERE id >= {lo} AND id < {hi}",
    # A volatile op on ``u``, next to the ops on ``t``.
    "UPDATE u SET c = RANDOM() WHERE id = {lo}",
    # The mover trap: key-disjoint from the INSERTs, these can still move a
    # row into an INSERT's range (``b = 1``) — a computed assignment, a
    # literal the row holds when ``v`` is 1, one of another type.
    "UPDATE t SET b = b + 1 WHERE id = {lo}",
    "UPDATE t SET b = {v} WHERE id = {lo}",
    "UPDATE t SET b = 'x' WHERE id = {lo}",
    # Point, mixed-type and range targets on non-key columns.
    "DELETE FROM t WHERE id = {key} AND b = {v}",
    "DELETE FROM t WHERE id = {key} AND c IN ({v}, 'x')",
    "UPDATE t SET c = {v} WHERE id = {key} AND b > {lo}",
    # A table with no key column.
    "UPDATE w SET a = {v} WHERE id = {lo}",
    "DELETE FROM w WHERE id = {hi}",
)
#: Mostly none (an imaged op is a barrier no reordering may cross), an
#: empty one (the DELETE matched nothing), one row.
IMAGES = (None, None, None, [], [(1, 2, 7, 3)])

_op = st.tuples(
    st.integers(0, len(TEMPLATES) - 1),
    st.integers(0, 5),
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(0, len(IMAGES) - 1),
)
_txn = st.tuples(st.lists(_op, min_size=1, max_size=3), st.booleans())
_window = st.lists(_txn, min_size=2, max_size=6)
_wide_window = st.lists(_txn, min_size=30, max_size=36)
_obligation = st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3))


def build_window(spec):
    groups = []
    for txn_id, (ops, inverted) in enumerate(spec, start=1):
        operations = []
        for sequence, (template, lo, width, value, image) in enumerate(ops):
            sql = TEMPLATES[template].format(
                lo=lo, hi=lo + width, v=value, key=100 + lo
            )
            parsed = parse(sql)
            operations.append(
                OpDelta(
                    statement_text=sql,
                    table=parsed.table,
                    kind=OpKind[type(parsed).__name__[: -len("Stmt")].upper()],
                    txn_id=txn_id,
                    sequence=sequence,
                    captured_at=float(txn_id),
                    before_image=IMAGES[image],
                )
            )
        if inverted:
            operations.reverse()
        groups.append(OpDeltaTransaction(txn_id=txn_id, operations=operations))
    return groups


def build_schedule(groups, lanes, count=3):
    placed = [[] for _ in range(count)]
    for group, lane in zip(groups, lanes):
        placed[lane % count].append(group.txn_id)
    return LaneSchedule(lanes=tuple(tuple(lane) for lane in placed))


def obligations(groups, picks):
    for index, moved, over in picks:
        group = groups[index % len(groups)]
        yield ReorderObligation(
            moved=f"txn{group.txn_id}:op{moved}",
            over=f"txn{group.txn_id}:op{over}",
            table="t",
            txn_id=group.txn_id,
            moved_sequence=moved,
            over_sequence=over,
        )


@given(
    _window,
    st.lists(st.integers(0, 2), min_size=6, max_size=6),
    st.booleans(),
    st.booleans(),
    st.lists(_obligation, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_the_record_proves_what_fresh_proofs_prove(
    spec, lanes, outside, structural, picks
):
    groups = build_window(spec)
    # With ``outside`` the last transaction is scheduled but never graphed
    # (RACE006): its pairs are first proved when the certifier reads them.
    graphed = groups[:-1] if outside else groups
    graph = ANALYZER.conflict_graph(graphed, structural=structural)
    assert (graph.edges, graph.components) == reference_graph(
        graphed,
        key_columns=KEYS,
        table_columns=COLUMNS,
        views=VIEWS,
        structural=structural,
    )

    fresh = dataclasses.replace(
        graph, record=FreshRecord(ANALYZER, structural=structural)
    )
    serial = LaneSchedule(lanes=(tuple(g.txn_id for g in groups),))
    for schedule in (build_schedule(groups, lanes), serial):
        expected = certify(groups, fresh, schedule).to_dict()
        assert certify(groups, graph, schedule).to_dict() == expected
        # A second reading finds every cell kept and must say the same.
        assert certify(groups, graph, schedule).to_dict() == expected

    proofs = list(obligations(groups, picks))
    kept = verify_compaction(groups, proofs, ANALYZER.record()).to_dict()
    fresh_record = FreshRecord(ANALYZER, structural=True)
    assert kept == verify_compaction(groups, proofs, fresh_record).to_dict()


@given(
    _window,
    st.integers(2, 3),
    st.lists(st.integers(0, 2), min_size=6, max_size=6),
)
# The later transaction's lane runs first, and the pair is proved in the
# other orientation only: the sanitizer must ask as the certifier does.
@example([([(5, 0, 3, 1, 0)], False), ([(6, 0, 3, 2, 0)], False)], 2, [1, 0] * 3)
@settings(max_examples=150, deadline=None)
def test_the_sanitizer_flags_the_pairs_the_certifier_rejects(spec, count, lanes):
    groups = build_window(spec)
    schedule = build_schedule(groups, lanes, count)
    certificate = certify(groups, ANALYZER.conflict_graph(groups), schedule)
    rejected = {
        (f.txn_a, f.txn_b) for f in certificate.findings if f.code == "RACE001"
    }
    # The sanitizer names a pair in the order its lanes ran it; the
    # certifier in window order.
    position = {group.txn_id: i for i, group in enumerate(groups)}
    flagged = {
        tuple(sorted((f.txn_a, f.txn_b), key=position.__getitem__))
        for f in InterferenceSanitizer(count, ANALYZER.record()).replay(
            groups, schedule
        )
    }
    assert flagged == rejected


@given(
    _wide_window,
    st.lists(st.integers(0, 2), min_size=36, max_size=36),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_the_sweep_skips_only_pairs_that_commute(spec, lanes, structural):
    """Windows of 30+ transactions: every op pair the sweep leaves out
    commutes in both orientations, and the graph and certificates built
    from the sweep equal those of the all-pairs loop.  About 3 s: each
    example proves every op pair of a ~70-op window three times over."""
    groups = build_window(spec)
    record = CommutationRecord(ANALYZER, structural=structural)
    footprints = [record.footprint(op) for g in groups for op in g.operations]
    candidates = _candidates(footprints, KEYS)
    for x, y in itertools.combinations(range(len(footprints)), 2):
        if (x, y) not in candidates:
            for a, b in ((x, y), (y, x)):
                assert commutes(
                    footprints[a], footprints[b], KEYS, structural=structural
                ), (footprints[a].statement, footprints[b].statement)

    graph = ANALYZER.conflict_graph(groups, structural=structural)
    assert (graph.edges, graph.components) == reference_graph(
        groups,
        key_columns=KEYS,
        table_columns=COLUMNS,
        views=VIEWS,
        structural=structural,
    )
    fresh = dataclasses.replace(
        graph, record=FreshRecord(ANALYZER, structural=structural)
    )
    schedule = build_schedule(groups, lanes)
    assert (
        certify(groups, graph, schedule).to_dict()
        == certify(groups, fresh, schedule).to_dict()
    )
