"""Property test: the certifier's verdict versus brute-force execution.

For random small windows (a handful of single-op transactions packed onto
2–3 lanes) the full set of lane-respecting interleavings is enumerable —
at most ``multinomial(6; ...) <= 90`` orders.  Each interleaving is run
through a tiny reference interpreter; the certifier's core soundness
obligation is then checked directly:

    **CERTIFIED implies every admitted interleaving reaches the serial
    state** — equivalently, any interleaving that diverges from the
    serial order forces a REJECTED verdict.

The converse does not hold (the prover is deliberately conservative: it
may reject a schedule whose interleavings all happen to agree), so
rejected schedules are only checked for *shape* — every finding names a
real scheduled transaction pair.  The generators are seeded; the test is
fully deterministic.
"""

import itertools
import random

from repro.analysis import OpDeltaAnalyzer
from repro.analysis.certify import LaneSchedule, certify
from repro.core.opdelta import OpDelta, OpDeltaTransaction, OpKind
from repro.sql.parser import parse

KEYS = {"t": "id"}

MAX_OPS = 6
TRIALS = 25


def make_op(txn_id, sql, apply_fn):
    parsed = parse(sql)
    kind = {
        "InsertStmt": OpKind.INSERT,
        "UpdateStmt": OpKind.UPDATE,
        "DeleteStmt": OpKind.DELETE,
    }[type(parsed).__name__]
    op = OpDelta(
        statement_text=sql,
        table=parsed.table,
        kind=kind,
        txn_id=txn_id,
        sequence=0,
        captured_at=float(txn_id),
    )
    return op, apply_fn


def accumulate_statement(rng, txn_id, ids, multiplied):
    """RMW arithmetic: adds commute, a multiply orders against adds."""
    row = rng.choice(ids)
    if row not in multiplied and rng.random() < 0.4:
        multiplied.add(row)
        sql = f"UPDATE t SET v = v * 10 WHERE id = {row}"

        def apply(state, row=row):
            state[row] = state.get(row, 0) * 10

    else:
        amount = 2 ** rng.randrange(6)
        sql = f"UPDATE t SET v = v + {amount} WHERE id = {row}"

        def apply(state, row=row, amount=amount):
            state[row] = state.get(row, 0) + amount

    return make_op(txn_id, sql, apply)


def point_statement(rng, txn_id, ids, inserted):
    """Point writes: INSERT of a fresh pk, literal UPDATE, DELETE."""
    choice = rng.randrange(3)
    if choice == 0:
        row = 100 + len(inserted)
        inserted.append(row)
        value = rng.randrange(50)
        sql = f"INSERT INTO t (id, v) VALUES ({row}, {value})"

        def apply(state, row=row, value=value):
            state[row] = value

    elif choice == 1:
        row = rng.choice(ids)
        value = rng.randrange(50)
        sql = f"UPDATE t SET v = {value} WHERE id = {row}"

        def apply(state, row=row, value=value):
            if row in state:
                state[row] = value

    else:
        row = rng.choice(ids)
        sql = f"DELETE FROM t WHERE id = {row}"

        def apply(state, row=row):
            state.pop(row, None)

    return make_op(txn_id, sql, apply)


def random_window(rng, statement_factory):
    """A window of single-op transactions plus its semantic closures."""
    ids = [1, 2, 3]
    txn_count = rng.randrange(3, MAX_OPS + 1)
    scratch: object = set() if statement_factory is accumulate_statement else []
    groups = []
    semantics = {}
    for txn_id in range(1, txn_count + 1):
        op, apply_fn = statement_factory(rng, txn_id, ids, scratch)
        groups.append(OpDeltaTransaction(txn_id=txn_id, operations=[op]))
        semantics[txn_id] = apply_fn
    return groups, semantics


def random_schedule(rng, groups):
    """Pack the transactions onto 2-3 lanes in random order."""
    lane_count = rng.randrange(2, 4)
    order = [g.txn_id for g in groups]
    rng.shuffle(order)
    lanes = [[] for _ in range(lane_count)]
    for txn_id in order:
        lanes[rng.randrange(lane_count)].append(txn_id)
    return LaneSchedule(lanes=tuple(tuple(lane) for lane in lanes))


def initial_state():
    return {1: 0, 2: 0, 3: 0}


def serial_state(groups, semantics):
    state = initial_state()
    for group in groups:
        semantics[group.txn_id](state)
    return state


def interleavings(schedule):
    """Every op order the schedule admits (lane order preserved)."""
    lanes = [lane for lane in schedule.lanes if lane]
    slots = [
        index for index, lane in enumerate(lanes) for _ in lane
    ]
    for perm in sorted(set(itertools.permutations(slots))):
        cursors = [0] * len(lanes)
        order = []
        for lane_index in perm:
            order.append(lanes[lane_index][cursors[lane_index]])
            cursors[lane_index] += 1
        yield order


def divergent_interleaving(schedule, semantics, expected):
    for order in interleavings(schedule):
        state = initial_state()
        for txn_id in order:
            semantics[txn_id](state)
        if state != expected:
            return order
    return None


def run_trials(statement_factory, seed):
    rng = random.Random(seed)
    analyzer = OpDeltaAnalyzer(key_columns=KEYS)
    verdicts = {"CERTIFIED": 0, "REJECTED": 0}
    for _ in range(TRIALS):
        groups, semantics = random_window(rng, statement_factory)
        schedule = random_schedule(rng, groups)
        graph = analyzer.conflict_graph(groups)
        certificate = certify(groups, graph, schedule)
        verdicts[certificate.verdict] += 1
        expected = serial_state(groups, semantics)
        witness = divergent_interleaving(schedule, semantics, expected)
        if certificate.certified:
            # Soundness: a certificate admits no divergent interleaving.
            assert witness is None, (
                f"CERTIFIED schedule {schedule.lanes} diverges via "
                f"{witness}: groups="
                f"{[g.operations[0].statement_text for g in groups]}"
            )
        else:
            scheduled = set(schedule.transaction_ids)
            for finding in certificate.findings:
                assert finding.txn_a in scheduled
                assert finding.txn_b in scheduled
    return verdicts


class TestCertifierSoundness:
    def test_accumulate_windows(self):
        verdicts = run_trials(accumulate_statement, seed=7)
        # The generator must exercise both branches of the property.
        assert verdicts["CERTIFIED"] > 0
        assert verdicts["REJECTED"] > 0

    def test_point_windows(self):
        verdicts = run_trials(point_statement, seed=11)
        assert verdicts["CERTIFIED"] > 0
        assert verdicts["REJECTED"] > 0

    def test_divergence_forces_rejection_directly(self):
        # The contrapositive on a hand-built window: two unordered
        # cross-lane RMWs on the same row diverge, so certification
        # must fail.
        op_mul, _ = make_op(1, "UPDATE t SET v = v * 10 WHERE id = 1", None)
        op_add, _ = make_op(2, "UPDATE t SET v = v + 3 WHERE id = 1", None)
        groups = [
            OpDeltaTransaction(txn_id=1, operations=[op_mul]),
            OpDeltaTransaction(txn_id=2, operations=[op_add]),
        ]
        graph = OpDeltaAnalyzer(key_columns=KEYS).conflict_graph(groups)
        certificate = certify(
            groups, graph, LaneSchedule(lanes=((1,), (2,)))
        )
        assert not certificate.certified
        assert certificate.findings[0].code == "RACE001"
