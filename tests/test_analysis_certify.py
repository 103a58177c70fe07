"""Schedule certifier, interference sanitizer and the widened prover."""

import dataclasses

import pytest

from repro.analysis import OpDeltaAnalyzer
from repro.analysis.certify import (
    InterferenceSanitizer,
    LaneSchedule,
    lpt_schedule,
    plant_lane_swap,
    single_lane_schedule,
    verify_compaction,
)
from repro.analysis.certify import certify as certify_schedule
from repro.analysis.rwsets import extract_footprint
from repro.analysis.safety import (
    commutes,
    conjunct_negations,
    predicates_disjoint,
)
from repro.compaction.report import ReorderObligation
from repro.core.opdelta import OpDelta, OpDeltaTransaction, OpKind
from repro.core.selfmaint import ViewDefinition
from repro.errors import AnalysisError
from repro.obs.metrics import MetricsRegistry
from repro.obs.pipeline.context import observe_pipeline
from repro.obs.pipeline.recorder import PipelineRecorder
from repro.sql.parser import parse

KEYS = {"t": "id"}
ANALYZER = OpDeltaAnalyzer(key_columns=KEYS)


def txn(txn_id, *statements):
    ops = []
    for seq, sql in enumerate(statements):
        parsed = parse(sql)
        kind = {
            "InsertStmt": OpKind.INSERT,
            "UpdateStmt": OpKind.UPDATE,
            "DeleteStmt": OpKind.DELETE,
        }[type(parsed).__name__]
        ops.append(
            OpDelta(
                statement_text=sql,
                table=parsed.table,
                kind=kind,
                txn_id=txn_id,
                sequence=seq,
                captured_at=float(txn_id),
            )
        )
    return OpDeltaTransaction(txn_id=txn_id, operations=ops)


def fp(sql):
    return extract_footprint(parse(sql))


#: Two transactions whose UPDATE ranges overlap: a real conflict.
CONFLICTING = (
    "UPDATE t SET a = 1 WHERE id >= 0 AND id < 10",
    "UPDATE t SET a = 2 WHERE id >= 5 AND id < 15",
)
#: Disjoint key ranges: provably commuting.
DISJOINT = (
    "UPDATE t SET a = 1 WHERE id >= 0 AND id < 10",
    "UPDATE t SET a = 2 WHERE id >= 10 AND id < 20",
)


def conflicting_groups():
    return [txn(1, CONFLICTING[0]), txn(2, CONFLICTING[1])]


def certify(groups, schedule):
    return certify_schedule(groups, ANALYZER.conflict_graph(groups), schedule)


class TestLaneSchedule:
    def test_positions_and_ids(self):
        schedule = LaneSchedule(lanes=((1, 3), (2,)))
        assert schedule.lane_count == 2
        assert schedule.transaction_ids == (1, 3, 2)
        assert schedule.lane_of(3) == 0
        assert schedule.lane_of(2) == 1
        assert schedule.lane_of(99) is None
        assert schedule.position_of(3) == (0, 1)
        assert schedule.position_of(99) is None
        assert schedule.to_dict() == {"lanes": [[1, 3], [2]]}

    def test_single_lane_schedule_keeps_window_order(self):
        groups = conflicting_groups()
        schedule = single_lane_schedule(groups)
        assert schedule.lanes == ((1, 2),)


class TestLptSchedule:
    def make(self):
        groups = [
            txn(1, CONFLICTING[0]),
            txn(2, CONFLICTING[1]),
            txn(3, "UPDATE t SET a = 3 WHERE id >= 100 AND id < 110"),
        ]
        return groups, ANALYZER.conflict_graph(groups)

    def test_components_stay_whole_and_ordered(self):
        groups, graph = self.make()
        schedule = lpt_schedule(groups, graph, lanes=2)
        # The conflicting component {1, 2} lands on one lane in capture
        # order; the independent txn 3 gets the other lane.
        assert schedule.lane_of(1) == schedule.lane_of(2)
        assert schedule.lane_of(3) != schedule.lane_of(1)
        lane = schedule.lanes[schedule.lane_of(1)]
        assert lane.index(1) < lane.index(2)

    def test_costs_steer_the_packing_deterministically(self):
        groups, _graph = self.make()
        # A transaction costs its operation count: txn 3 with three outweighs
        # the component {1, 2} and fills the first lane.
        groups[2] = txn(3, *[groups[2].operations[0].statement_text] * 3)
        graph = ANALYZER.conflict_graph(groups)
        first = lpt_schedule(groups, graph, lanes=2)
        assert first.lanes[0] == (3,)
        # Costs only change which lane fills first, never the members.
        assert sorted(first.transaction_ids) == [1, 2, 3]
        assert first == lpt_schedule(groups, graph, lanes=2)

    def test_lane_count_must_be_positive(self):
        groups, graph = self.make()
        with pytest.raises(AnalysisError):
            lpt_schedule(groups, graph, lanes=0)


class TestPlantLaneSwap:
    def test_moves_one_side_of_a_conflict_edge(self):
        groups = conflicting_groups()
        graph = ANALYZER.conflict_graph(groups)
        schedule = LaneSchedule(lanes=((1, 2), ()))
        planted = plant_lane_swap(schedule, graph)
        assert planted.lane_of(1) != planted.lane_of(2)
        # Deterministic: the same inputs plant the same race.
        assert planted == plant_lane_swap(schedule, graph)

    def test_needs_two_lanes(self):
        groups = conflicting_groups()
        graph = ANALYZER.conflict_graph(groups)
        with pytest.raises(AnalysisError):
            plant_lane_swap(single_lane_schedule(groups), graph)

    def test_needs_a_conflict_edge(self):
        groups = [txn(1, DISJOINT[0]), txn(2, DISJOINT[1])]
        graph = ANALYZER.conflict_graph(groups)
        with pytest.raises(AnalysisError):
            plant_lane_swap(LaneSchedule(lanes=((1,), (2,))), graph)


class TestScheduleCertifier:
    def test_serial_order_certifies(self):
        groups = conflicting_groups()
        certificate = certify(groups, single_lane_schedule(groups))
        assert certificate.certified
        assert certificate.verdict == "CERTIFIED"
        assert certificate.pairs_checked == 1
        assert certificate.conflicting_pairs == 1
        assert certificate.commuting_pairs == 0

    def test_cross_lane_conflict_is_race001_with_witness(self):
        groups = conflicting_groups()
        certificate = certify(groups, LaneSchedule(lanes=((1,), (2,))))
        assert not certificate.certified
        (finding,) = certificate.findings
        assert finding.code == "RACE001"
        assert (finding.lane_a, finding.lane_b) == (0, 1)
        # The witness is an admitted order that runs the late op first.
        assert finding.witness
        assert finding.witness[-1] == finding.op_a
        assert finding.op_b in finding.witness
        assert "witness interleaving" in finding.render()

    def test_same_lane_inversion_is_race002(self):
        groups = conflicting_groups()
        certificate = certify(groups, LaneSchedule(lanes=((2, 1),)))
        codes = [f.code for f in certificate.findings]
        assert codes == ["RACE002"]

    def test_disjoint_transactions_may_straddle_lanes(self):
        groups = [txn(1, DISJOINT[0]), txn(2, DISJOINT[1])]
        certificate = certify(groups, LaneSchedule(lanes=((1,), (2,))))
        assert certificate.certified
        assert certificate.conflicting_pairs == 0

    def test_missing_transaction_is_race005(self):
        groups = conflicting_groups()
        certificate = certify(groups, LaneSchedule(lanes=((1,),)))
        assert any(f.code == "RACE005" for f in certificate.findings)

    def test_duplicated_transaction_is_race005(self):
        groups = conflicting_groups()
        certificate = certify(groups, LaneSchedule(lanes=((1, 2), (2,))))
        assert any(
            f.code == "RACE005" and "more than once" in f.message
            for f in certificate.findings
        )

    def test_unanalyzed_transaction_is_race006(self):
        groups = conflicting_groups()
        graph = ANALYZER.conflict_graph(groups[:1])
        certificate = certify_schedule(
            groups, graph, single_lane_schedule(groups)
        )
        assert any(f.code == "RACE006" for f in certificate.findings)

    def test_the_graphs_edges_are_never_read(self):
        # A graph claiming no conflict at all still cannot smuggle a
        # cross-lane conflict past the certifier: it reads the op pairs.
        groups = conflicting_groups()
        graph = ANALYZER.conflict_graph(groups)
        blind = dataclasses.replace(graph, edges=(), components=((1,), (2,)))
        certificate = certify_schedule(
            groups, blind, LaneSchedule(lanes=((1,), (2,)))
        )
        assert [f.code for f in certificate.findings] == ["RACE001"]

    def test_metrics_account_for_checks_and_findings(self):
        registry = MetricsRegistry()
        groups = conflicting_groups()
        graph = OpDeltaAnalyzer(key_columns=KEYS, metrics=registry).conflict_graph(
            groups
        )
        certify_schedule(groups, graph, LaneSchedule(lanes=((1,), (2,))))
        counters = registry.snapshot()["counters"]
        assert counters["analysis.certify.schedules_checked"] == 1
        assert counters["analysis.certify.findings_raised"] == 1

    def test_finding_to_dict_round_trips_the_position(self):
        groups = conflicting_groups()
        certificate = certify(groups, LaneSchedule(lanes=((1,), (2,))))
        doc = certificate.to_dict()
        assert doc["verdict"] == "REJECTED"
        assert doc["findings"][0]["code"] == "RACE001"
        assert doc["findings"][0]["witness"]


class TestVerifyCompaction:
    def obligation(self, moved_seq, over_seq):
        return ReorderObligation(
            moved=f"txn1:op{moved_seq}",
            over=f"txn1:op{over_seq}",
            table="t",
            txn_id=1,
            moved_sequence=moved_seq,
            over_sequence=over_seq,
        )

    def test_proven_reordering_certifies(self):
        groups = [txn(1, DISJOINT[0], DISJOINT[1])]
        certificate = verify_compaction(
            groups, [self.obligation(1, 0)], ANALYZER.record()
        )
        assert certificate.certified
        assert certificate.reorder_checks == 1

    def test_unproven_reordering_is_race003(self):
        groups = [txn(1, CONFLICTING[0], CONFLICTING[1])]
        certificate = verify_compaction(
            groups, [self.obligation(1, 0)], ANALYZER.record()
        )
        assert [f.code for f in certificate.findings] == ["RACE003"]

    def test_dangling_obligation_is_race005(self):
        groups = [txn(1, DISJOINT[0], DISJOINT[1])]
        certificate = verify_compaction(
            groups, [self.obligation(99, 0)], ANALYZER.record()
        )
        assert [f.code for f in certificate.findings] == ["RACE005"]

    def test_barrier_crossing_is_race004(self):
        groups = [txn(1, DISJOINT[0], DISJOINT[1])]
        # A before image marks the op as a hybrid barrier.
        object.__setattr__(
            groups[0].operations[0], "before_image", [(1, "x")]
        )
        certificate = verify_compaction(
            groups, [self.obligation(1, 0)], ANALYZER.record()
        )
        assert [f.code for f in certificate.findings] == ["RACE004"]


class TestWidenedProver:
    PARTITIONED = (
        "UPDATE t SET a = 1 WHERE b = 7 AND id >= 0 AND id < 10",
        "UPDATE t SET a = 2 WHERE b <> 7 AND id >= 0 AND id < 10",
    )

    def test_conjunct_negations_flip_comparisons(self):
        where = parse("UPDATE t SET a = 1 WHERE b = 7").where
        negations = conjunct_negations(where)
        assert negations
        rendered = {type(n).__name__ for n in negations}
        assert rendered  # structural expressions, one per flipped operator

    def test_predicates_disjoint_finds_the_partition_witness(self):
        where_a = parse(self.PARTITIONED[0]).where
        where_b = parse(self.PARTITIONED[1]).where
        witness = predicates_disjoint(where_a, where_b)
        assert witness == frozenset({"b"})

    def test_overlapping_predicates_have_no_witness(self):
        where_a = parse(CONFLICTING[0]).where
        where_b = parse(CONFLICTING[1]).where
        assert predicates_disjoint(where_a, where_b) is None

    def test_widening_proves_the_partitioned_pair_commutes(self):
        a, b = (fp(sql) for sql in self.PARTITIONED)
        assert commutes(a, b, KEYS, structural=True)
        assert not commutes(a, b, KEYS, structural=False)

    def test_soundness_guard_rejects_witness_column_writes(self):
        # The second statement assigns the partition witness column b:
        # after it runs, rows can migrate across the partition, so the
        # structural proof must refuse.
        a = fp(self.PARTITIONED[0])
        b = fp("UPDATE t SET b = 7 WHERE b <> 7 AND id >= 0 AND id < 10")
        assert not commutes(a, b, KEYS, structural=True)

    def test_widening_never_narrows(self):
        # Anything the conservative prover accepts, the widened one does.
        a, b = (fp(sql) for sql in DISJOINT)
        assert commutes(a, b, KEYS, structural=False)
        assert commutes(a, b, KEYS, structural=True)


class TestInterferenceSanitizer:
    def make_ops(self, sqls):
        group = txn(1, *sqls)
        return group.operations

    def test_unordered_conflicting_writes_are_flagged(self):
        sanitizer = InterferenceSanitizer(2, ANALYZER.record())
        op_a, op_b = self.make_ops(CONFLICTING)
        sanitizer.observe(0, op_a, at_ms=1.0)
        sanitizer.observe(1, op_b, at_ms=2.0)
        assert not sanitizer.clean
        (finding,) = sanitizer.findings
        assert finding.code == "RACE102"
        assert (finding.lane_a, finding.lane_b) == (0, 1)

    def test_commuting_accesses_are_not_races(self):
        sanitizer = InterferenceSanitizer(2, ANALYZER.record())
        op_a, op_b = self.make_ops(DISJOINT)
        sanitizer.observe(0, op_a, at_ms=1.0)
        sanitizer.observe(1, op_b, at_ms=2.0)
        assert sanitizer.clean

    def test_same_lane_accesses_are_program_ordered(self):
        sanitizer = InterferenceSanitizer(2, ANALYZER.record())
        op_a, op_b = self.make_ops(CONFLICTING)
        sanitizer.observe(0, op_a, at_ms=1.0)
        sanitizer.observe(0, op_b, at_ms=2.0)
        assert sanitizer.clean

    def test_lost_update_classified_race101(self):
        sanitizer = InterferenceSanitizer(2, ANALYZER.record())
        op_a, op_b = self.make_ops(
            (
                "UPDATE t SET a = a + 1 WHERE id >= 0 AND id < 10",
                "UPDATE t SET a = 2 WHERE id >= 5 AND id < 15",
            )
        )
        sanitizer.observe(0, op_a, at_ms=1.0)
        sanitizer.observe(1, op_b, at_ms=2.0)
        assert [f.code for f in sanitizer.findings] == ["RACE101"]

    def test_read_of_uncommitted_classified_race103(self):
        sanitizer = InterferenceSanitizer(2, ANALYZER.record())
        op_a, op_b = self.make_ops(
            (
                "UPDATE t SET a = b + 1 WHERE id >= 0 AND id < 10",
                "UPDATE t SET b = 5 WHERE id >= 5 AND id < 15",
            )
        )
        sanitizer.observe(0, op_a, at_ms=1.0)
        sanitizer.observe(1, op_b, at_ms=2.0)
        assert [f.code for f in sanitizer.findings] == ["RACE103"]

    def test_findings_deduplicate_per_op_pair(self):
        sanitizer = InterferenceSanitizer(2, ANALYZER.record())
        op_a, op_b = self.make_ops(CONFLICTING)
        sanitizer.observe(0, op_a, at_ms=1.0)
        sanitizer.observe(1, op_b, at_ms=2.0)
        # The same racy pair observed again raises no second finding.
        sanitizer.observe(1, op_b, at_ms=3.0)
        assert len(sanitizer.findings) == 1

    def test_replay_drives_a_planted_schedule(self):
        groups = conflicting_groups()
        sanitizer = InterferenceSanitizer(2, ANALYZER.record())
        findings = sanitizer.replay(
            groups, LaneSchedule(lanes=((1,), (2,)))
        )
        assert findings
        assert findings == sanitizer.findings

    def test_replay_of_the_serial_schedule_is_clean(self):
        groups = conflicting_groups()
        sanitizer = InterferenceSanitizer(1, ANALYZER.record())
        assert sanitizer.replay(groups, single_lane_schedule(groups)) == ()

    def test_detections_reach_the_pipeline_recorder(self):
        recorder = PipelineRecorder()
        sanitizer = InterferenceSanitizer(2, ANALYZER.record())
        op_a, op_b = self.make_ops(CONFLICTING)
        with observe_pipeline(recorder):
            sanitizer.observe(0, op_a, at_ms=1.0)
            sanitizer.observe(1, op_b, at_ms=2.0)
        (race,) = recorder.races
        assert race.code == "RACE102"
        assert race.table == "t"
        assert race.at_ms == 2.0


class TestTransportCertifierSeam:
    def test_unproven_window_refuses_to_ship(self):
        """What a pipeline does between compacting and shipping: re-prove
        the obligations against the *uncompacted* window, ship only a
        certified one.  A planted obligation must come back refused."""
        from repro.analysis import OpDeltaAnalyzer
        from repro.compaction import Coalescer

        groups = [txn(1, DISJOINT[0], DISJOINT[1])]
        analyzer = OpDeltaAnalyzer(key_columns=KEYS)
        _compacted, report = Coalescer(analyzer=analyzer).compact_window(groups)
        planted = ReorderObligation(
            moved="txn1:op0",
            over="txn1:op1",
            table="t",
            txn_id=1,
            moved_sequence=99,
            over_sequence=1,
        )
        certificate = verify_compaction(
            groups, [*report.reorder_obligations, planted], analyzer.record()
        )
        assert not certificate.certified
        assert [f.code for f in certificate.findings] == ["RACE005"]


class TestOneJudgeOfReordering:
    """The sanitizer judges an op pair as the certifier does: both read a
    record the one analyzer made, its view catalog included."""

    #: Keeps ``part_id`` and ``status``: a DELETE on ``part_id`` is
    #: rewritten onto it, one on the unprojected ``quantity`` is replayed
    #: from its before image.
    NARROW = ViewDefinition(
        name="narrow",
        base_table="parts",
        columns=("part_id", "status"),
        key_column="part_id",
    )

    def test_deletes_a_view_replays_differently_race_on_both_judges(self):
        analyzer = OpDeltaAnalyzer(
            views=[self.NARROW], key_columns={"parts": "part_id"}
        )
        groups = [
            txn(1, "DELETE FROM parts WHERE part_id = 5"),
            txn(2, "DELETE FROM parts WHERE quantity > 3"),
        ]
        schedule = LaneSchedule(((1,), (2,)))
        certificate = certify_schedule(
            groups, analyzer.conflict_graph(groups), schedule
        )
        assert certificate.verdict == "REJECTED"
        assert [f.code for f in certificate.findings] == ["RACE001"]
        findings = InterferenceSanitizer(2, analyzer.record()).replay(
            groups, schedule
        )
        assert [(f.txn_a, f.txn_b) for f in findings] == [(1, 2)]
        # Without the view both DELETEs replay alike, and both judges agree
        # the pair commutes.
        blind = OpDeltaAnalyzer(key_columns={"parts": "part_id"})
        assert certify_schedule(
            groups, blind.conflict_graph(groups), schedule
        ).certified
        assert InterferenceSanitizer(2, blind.record()).replay(
            groups, schedule
        ) == ()
