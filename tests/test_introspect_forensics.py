"""Causal critical-path forensics (repro.obs.introspect.forensics)."""

from dataclasses import dataclass

import pytest

from repro.obs.introspect import CriticalPathAnalyzer, critical_stage
from repro.obs.introspect.forensics import STAGES, UNKNOWN_WINDOW
from repro.obs.pipeline import PipelineRecorder


@dataclass
class FakeOp:
    sequence: int
    captured_at: float
    table: str = "parts"
    txn_id: int = 1

    @property
    def lineage_id(self) -> str:
        return f"src:{self.sequence}"


@dataclass
class FakeGroup:
    operations: tuple
    txn_id: int = 1
    committed_at: float | None = None


def two_round_recorder(log_capacity=None) -> PipelineRecorder:
    """Three ops over two apply rounds with hand-picked timestamps.

    Round 0 applies ops 1 and 2 (starts at 50); an ACKED event breaks
    the APPLIED run; round 1 applies op 3 (starts at 80).  With a
    ``log_capacity`` the event log keeps only that many of the latest.
    """
    recorder = PipelineRecorder()
    if log_capacity is not None:
        recorder.log.capacity = log_capacity
    a, b = FakeOp(1, 10.0), FakeOp(2, 11.0)
    recorder.record_captured(a, "src", 10.0)
    recorder.record_captured(b, "src", 11.0)
    recorder.record_checked(a, 12.0)
    recorder.record_checked(b, 13.0)
    recorder.record_enqueued(FakeGroup((a, b)), 20.0)
    recorder.record_applied(a, 50.0, views=("v",))
    recorder.record_applied(b, 52.0, views=("v",))
    recorder.record_acked(FakeGroup((a, b)), 53.0)
    c = FakeOp(3, 60.0)
    recorder.record_captured(c, "src", 60.0)
    recorder.record_checked(c, 61.0)
    recorder.record_enqueued(FakeGroup((c,), txn_id=2), 65.0)
    recorder.record_applied(c, 80.0)
    return recorder


class TestCriticalStage:
    def test_largest_segment_wins(self):
        assert critical_stage({"check": 1, "ship": 9, "queue": 3, "apply": 2}) == "ship"

    def test_exact_tie_goes_to_the_earlier_stage(self):
        assert critical_stage(dict.fromkeys(STAGES, 5.0)) == "check"
        assert critical_stage({"check": 0, "ship": 5, "queue": 5, "apply": 5}) == "ship"

    def test_empty_segments_name_the_first_stage(self):
        assert critical_stage({}) == "check"


class TestDecomposition:
    def test_segments_match_the_lifecycle_timestamps(self):
        rows = {r.correlation_id: r for r in CriticalPathAnalyzer(two_round_recorder()).rows()}
        a = rows["src:1"]
        assert (a.check_ms, a.ship_ms, a.queue_ms, a.apply_ms) == (2.0, 8.0, 30.0, 0.0)
        b = rows["src:2"]
        # Op 2 waits 2ms into round 0 for its own APPLIED: apply, not queue.
        assert (b.check_ms, b.ship_ms, b.queue_ms, b.apply_ms) == (2.0, 7.0, 30.0, 2.0)

    def test_segments_telescope_to_the_end_to_end_latency(self):
        for row in CriticalPathAnalyzer(two_round_recorder()).rows():
            total = row.check_ms + row.ship_ms + row.queue_ms + row.apply_ms
            assert total == pytest.approx(row.end_to_end_ms, abs=1e-9)

    def test_rounds_derive_from_maximal_applied_runs(self):
        analyzer = CriticalPathAnalyzer(two_round_recorder())
        rows = {r.correlation_id: r for r in analyzer.rows()}
        assert rows["src:1"].window_index == 0
        assert rows["src:2"].window_index == 0
        assert rows["src:3"].window_index == 1

    def test_unapplied_ops_get_no_row(self):
        recorder = PipelineRecorder()
        op = FakeOp(1, 5.0)
        recorder.record_captured(op, "src", 5.0)
        recorder.record_checked(op, 6.0)
        assert CriticalPathAnalyzer(recorder).rows() == []

    def test_empty_recorder_yields_no_rows_and_no_p99(self):
        analyzer = CriticalPathAnalyzer(PipelineRecorder())
        assert analyzer.rows() == []
        assert analyzer.p99_blame() is None
        assert analyzer.window_blame() == []
        assert analyzer.view_blame() == []


class TestEvictionFallback:
    def test_evicted_applied_events_degrade_to_unknown_window(self):
        # Capacity 3 keeps only the tail of the log: op 1's APPLIED event
        # is evicted, so its round is unknowable and the row degrades —
        # the whole post-source wait lands on queue, apply is zero.
        recorder = two_round_recorder(log_capacity=3)
        analyzer = CriticalPathAnalyzer(recorder)
        rows = {r.correlation_id: r for r in analyzer.rows()}
        degraded = rows["src:1"]
        assert degraded.window_index == UNKNOWN_WINDOW
        assert degraded.apply_ms == 0.0
        assert degraded.queue_ms == 30.0  # enqueued 20 -> first applied 50
        assert degraded.end_to_end_ms == 40.0
        labels = [blame.label for blame in analyzer.window_blame()]
        assert labels[0] == "window:unknown"

    def test_degraded_rows_still_telescope(self):
        analyzer = CriticalPathAnalyzer(two_round_recorder(log_capacity=3))
        for row in analyzer.rows():
            total = row.check_ms + row.ship_ms + row.queue_ms + row.apply_ms
            assert total == pytest.approx(row.end_to_end_ms, abs=1e-9)


class TestAggregates:
    def test_window_blame_sums_segments_per_round(self):
        blames = {b.label: b for b in CriticalPathAnalyzer(two_round_recorder()).window_blame()}
        round0 = blames["window:0"]
        assert round0.ops == 2
        assert round0.segments["queue"] == 60.0
        assert round0.total_ms == 81.0
        assert round0.critical_stage == "queue"
        assert blames["window:1"].ops == 1

    def test_view_blame_groups_by_maintained_view(self):
        blames = CriticalPathAnalyzer(two_round_recorder()).view_blame()
        assert [b.label for b in blames] == ["view:v"]
        assert blames[0].ops == 2  # op 3 carries no views

    def test_p99_is_the_nearest_rank_tail_op(self):
        # Three rows: rank = ceil(0.99 * 3) = 3 -> the slowest op.
        p99 = CriticalPathAnalyzer(two_round_recorder()).p99_blame()
        assert p99 is not None
        assert p99.correlation_id == "src:2"
        assert p99.end_to_end_ms == 41.0

    def test_to_dict_round_trips_the_summary(self):
        summary = CriticalPathAnalyzer(two_round_recorder()).to_dict()
        assert summary["ops"] == 3
        assert [w["label"] for w in summary["windows"]] == ["window:0", "window:1"]
        assert summary["p99"]["critical_stage"] == "queue"
