"""Source/table watermarks, view freshness and lag distributions."""

from repro.obs.pipeline import (
    LagSamples,
    SourceWatermark,
    TableWatermark,
    ViewFreshness,
)


class TestSourceWatermark:
    def test_capture_raises_the_high_watermark(self):
        w = SourceWatermark(source="s")
        w.capture(1)
        w.capture(2)
        assert w.high_seq == 2
        assert w.captured == 2
        assert w.in_flight == 2

    def test_low_watermark_trails_the_first_pending_sequence(self):
        w = SourceWatermark(source="s")
        for seq in (1, 2, 3):
            w.capture(seq)
        w.settle(2)
        # 1 is still pending, so nothing below it is fully settled.
        assert w.low_seq == 0
        w.settle(1)
        assert w.low_seq == 2
        w.settle(3)
        assert w.low_seq == 3
        assert w.in_flight == 0

    def test_low_watermark_catches_up_when_nothing_pending(self):
        w = SourceWatermark(source="s")
        w.capture(5)
        w.settle(5)
        assert w.low_seq == w.high_seq == 5

    def test_settle_is_idempotent(self):
        w = SourceWatermark(source="s")
        w.capture(1)
        w.settle(1)
        w.settle(1)
        assert w.settled == 1

    def test_settle_of_unknown_sequence_is_ignored(self):
        w = SourceWatermark(source="s")
        w.capture(1)
        w.settle(99)
        assert w.settled == 0
        assert (w.in_flight, w.low_seq) == (1, 0)

    def test_to_dict_reports_the_in_flight_window(self):
        w = SourceWatermark(source="s")
        w.capture(1)
        w.capture(2)
        w.settle(1)
        d = w.to_dict()
        assert d["low_seq"] == 1
        assert d["high_seq"] == 2
        assert d["in_flight"] == 1


class TestTableWatermark:
    def test_lag_is_zero_before_any_capture(self):
        assert TableWatermark(source="s", table="t").lag_ms == 0.0

    def test_lag_is_full_history_before_any_apply(self):
        w = TableWatermark(source="s", table="t", captured_through_ms=120.0)
        assert w.lag_ms == 120.0

    def test_lag_is_commit_time_distance(self):
        w = TableWatermark(
            source="s",
            table="t",
            captured_through_ms=120.0,
            applied_through_ms=100.0,
        )
        assert w.lag_ms == 20.0

    def test_lag_never_negative(self):
        w = TableWatermark(
            source="s",
            table="t",
            captured_through_ms=90.0,
            applied_through_ms=100.0,
        )
        assert w.lag_ms == 0.0


class TestViewFreshness:
    def test_staleness_zero_with_no_source_activity(self):
        assert ViewFreshness(view="v").staleness_ms(None) == 0.0

    def test_never_maintained_view_is_stale_by_the_whole_history(self):
        assert ViewFreshness(view="v").staleness_ms(250.0) == 250.0

    def test_staleness_is_distance_behind_newest_commit(self):
        fresh = ViewFreshness(view="v", applied_through_ms=200.0)
        assert fresh.staleness_ms(250.0) == 50.0
        assert fresh.staleness_ms(150.0) == 0.0


class TestLagSamples:
    def test_summary_of_empty_distribution(self):
        summary = LagSamples().summary()
        assert summary == {
            "count": 0.0,
            "mean": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "max": 0.0,
        }

    def test_percentiles_are_nearest_rank_exact(self):
        samples = LagSamples()
        for value in range(1, 101):
            samples.add(float(value))
        assert samples.percentile(0.5) == 50.0
        assert samples.percentile(0.95) == 95.0
        assert samples.percentile(1.0) == 100.0
        assert samples.max == 100.0
        assert samples.mean == 50.5

    def test_single_sample_is_every_percentile(self):
        samples = LagSamples()
        samples.add(7.0)
        assert samples.percentile(0.5) == 7.0
        assert samples.percentile(0.95) == 7.0

    def test_order_of_insertion_does_not_matter(self):
        a, b = LagSamples(), LagSamples()
        for value in (5.0, 1.0, 3.0):
            a.add(value)
        for value in (1.0, 3.0, 5.0):
            b.add(value)
        assert a.summary() == b.summary()
