"""Conflict graph construction and the conflict-aware schedule."""

import pytest

from repro.analysis import OpDeltaAnalyzer
from repro.analysis.conflict import parallel_order
from repro.core.opdelta import OpDelta, OpDeltaTransaction, OpKind
from repro.core.selfmaint import ViewDefinition
from repro.errors import SimulationError
from repro.obs.context import observe
from repro.obs.metrics import MetricsRegistry
from repro.sql.parser import parse
from repro.warehouse import run_conflict_schedule

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


class TestTransactionsConflict:
    def test_any_non_commuting_pair_conflicts(self):
        a = txn(1, "UPDATE t SET a = 1 WHERE id >= 0 AND id < 10")
        b = txn(
            2,
            "UPDATE t SET a = 2 WHERE id >= 10 AND id < 20",
            "UPDATE t SET a = 3 WHERE id >= 5 AND id < 8",
        )
        record = ANALYZER.record()
        # The witness is the first op pair that does not commute.
        assert record.conflicts([a, b]) == [(0, 1, (a.operations[0], b.operations[1]))]
        assert record.commute(a.operations[0], b.operations[0])

    def test_all_commuting_pairs_no_conflict(self):
        a = txn(1, "UPDATE t SET a = 1 WHERE id >= 0 AND id < 10")
        b = txn(2, "UPDATE t SET a = 2 WHERE id >= 10 AND id < 20")
        assert ANALYZER.record().conflicts([a, b]) == []


class TestDeletesReplayedDifferently:
    """Two DELETEs swap freely only when every view replays them alike."""

    #: Keeps ``id`` and ``a``: a DELETE on ``id`` is rewritten onto it, one
    #: on the unprojected ``c`` is replayed from its before image.
    NARROW = ViewDefinition(
        name="narrow", base_table="t", columns=("id", "a"), key_column="id"
    )

    def told(self):
        return OpDeltaAnalyzer(key_columns=KEYS, views=[self.NARROW])

    def window(
        self,
        first="DELETE FROM t WHERE c >= 1 AND c < 2",
        second="DELETE FROM t WHERE id = 1",
    ):
        groups = [txn(1, first), txn(2, second)]
        for group in groups:
            group.operations[0].before_image = []
        return groups

    def test_a_view_replaying_them_differently_orders_them(self):
        graph = self.told().conflict_graph(self.window())
        assert graph.edges == ((1, 2),)

    def test_alike_on_every_view_they_commute(self):
        # No view, or both replayed from their images: no edge.
        assert ANALYZER.conflict_graph(self.window()).edges == ()
        both_imaged = self.window(second="DELETE FROM t WHERE c = 5")
        graph = self.told().conflict_graph(both_imaged)
        assert graph.edges == ()

    def test_disjoint_rows_still_commute(self):
        window = self.window(first="DELETE FROM t WHERE id >= 10 AND c = 1")
        graph = self.told().conflict_graph(window)
        assert graph.edges == ()


class TestBuildConflictGraph:
    def make_groups(self):
        return [
            txn(1, "UPDATE t SET a = 1 WHERE id >= 0 AND id < 10"),
            txn(2, "UPDATE t SET a = 2 WHERE id >= 10 AND id < 20"),
            txn(3, "UPDATE t SET a = 3 WHERE id >= 5 AND id < 15"),
            txn(4, "UPDATE t SET a = 4 WHERE id >= 100 AND id < 110"),
        ]

    def test_components_and_edges(self):
        graph = ANALYZER.conflict_graph(self.make_groups())
        # txn 3 overlaps both 1 and 2; txn 4 is independent.
        assert set(graph.edges) == {(1, 3), (2, 3)}
        assert graph.component_count == 2
        assert graph.largest_component == 3
        assert sorted(graph.components) == [(1, 2, 3), (4,)]

    def test_metrics_emitted(self):
        registry = MetricsRegistry()
        OpDeltaAnalyzer(key_columns=KEYS, metrics=registry).conflict_graph(
            self.make_groups()
        )
        snap = registry.snapshot()
        assert snap["counters"]["analysis.conflict.edges"] == 2
        assert snap["gauges"]["analysis.conflict.components"]["value"] == 2
        assert (
            snap["gauges"]["analysis.conflict.largest_component"]["value"] == 3
        )

    def test_time_dependent_statements_are_pinned_not_poisoned(self):
        # NOW() is pinned to the capture timestamp before footprint
        # extraction, so a time-dependent txn only conflicts on real
        # row-range overlap — it must not serialise the whole batch.
        groups = [
            txn(1, "UPDATE t SET a = NOW() WHERE id >= 0 AND id < 10"),
            txn(2, "UPDATE t SET a = 2 WHERE id >= 10 AND id < 20"),
        ]
        graph = ANALYZER.conflict_graph(groups)
        assert graph.edges == ()
        assert graph.component_count == 2

    def test_volatile_statements_conflict_with_everything(self):
        groups = [
            txn(1, "UPDATE t SET a = RANDOM() WHERE id >= 0 AND id < 10"),
            txn(2, "UPDATE t SET a = 2 WHERE id >= 10 AND id < 20"),
        ]
        graph = ANALYZER.conflict_graph(groups)
        assert graph.edges == ((1, 2),)

    def test_empty_batch(self):
        graph = OpDeltaAnalyzer().conflict_graph([])
        assert graph.component_count == 0
        assert graph.largest_component == 0


class TestParallelOrder:
    def test_interleaves_components_preserving_internal_order(self):
        groups = [
            txn(1, "UPDATE t SET a = 1 WHERE id >= 0 AND id < 10"),
            txn(2, "UPDATE t SET a = 2 WHERE id >= 100 AND id < 110"),
            txn(3, "UPDATE t SET a = 3 WHERE id >= 5 AND id < 15"),
            txn(4, "UPDATE t SET a = 4 WHERE id >= 105 AND id < 115"),
        ]
        graph = ANALYZER.conflict_graph(groups)
        ordered = parallel_order(groups, graph)
        ids = [g.txn_id for g in ordered]
        assert sorted(ids) == [1, 2, 3, 4]
        # Capture order within each conflict component is preserved.
        assert ids.index(1) < ids.index(3)
        assert ids.index(2) < ids.index(4)
        # And the components are actually interleaved, not concatenated.
        assert ids != [1, 3, 2, 4]


class TestRunConflictSchedule:
    def test_speedup_on_independent_components(self):
        report = run_conflict_schedule([[100.0], [100.0], [100.0], [100.0]],
                                       workers=4)
        assert report.serial_ms == 400.0
        assert report.parallel_ms == 100.0
        assert report.speedup == 4.0
        assert report.components == 4
        assert report.transactions == 4

    def test_single_component_cannot_parallelise(self):
        report = run_conflict_schedule([[50.0, 50.0, 50.0]], workers=4)
        assert report.parallel_ms == 150.0
        assert report.speedup == 1.0

    def test_lpt_balances_lanes(self):
        # Longest component first: [300] one lane, [100,100,100] the other.
        report = run_conflict_schedule(
            [[100.0], [300.0], [100.0], [100.0]], workers=2
        )
        assert report.serial_ms == 600.0
        assert report.parallel_ms == 300.0

    def test_workers_must_be_positive(self):
        with pytest.raises(SimulationError):
            run_conflict_schedule([[10.0]], workers=0)

    def test_metrics_emitted(self):
        registry = MetricsRegistry()
        with observe(metrics=registry):
            run_conflict_schedule([[100.0], [100.0]], workers=2)
        gauges = registry.snapshot()["gauges"]
        assert gauges["warehouse.schedule.serial_ms"]["value"] == 200.0
        assert gauges["warehouse.schedule.parallel_ms"]["value"] == 100.0
        assert gauges["warehouse.schedule.speedup"]["value"] == 2.0

    def test_empty_schedule(self):
        report = run_conflict_schedule([], workers=2)
        assert report.serial_ms == 0.0
        assert report.parallel_ms == 0.0
        assert report.speedup == 1.0
