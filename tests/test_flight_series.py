"""Ring-buffer metric series and the flight sampler (repro.obs.flight)."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder, RingSeries, TimeSeriesStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.pipeline import PipelineRecorder
from repro.obs.stats import nearest_rank_percentile
from repro.clock import VirtualClock


def filled(points):
    series = RingSeries("t.series")
    for at_ms, value in points:
        series.record(at_ms, value)
    return series


class TestRingSeries:
    def test_records_in_order(self):
        series = filled([(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)])
        assert len(series) == 3
        assert series.latest == (3.0, 30.0)
        assert series.window() == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]

    def test_equal_timestamps_allowed(self):
        # Several samples at the same virtual instant are legitimate
        # (one shipped window samples many signals "at once").
        series = filled([(5.0, 1.0), (5.0, 2.0)])
        assert series.values() == [1.0, 2.0]

    def test_backwards_time_rejected(self):
        series = filled([(10.0, 1.0)])
        with pytest.raises(ObservabilityError, match="monotone"):
            series.record(9.0, 2.0)

    def test_capacity_bound_evicts_oldest(self):
        series = RingSeries("t.bounded")
        for at_ms in range(DEFAULT_CAPACITY + 2):
            series.record(float(at_ms), float(at_ms) * 10)
        assert len(series) == DEFAULT_CAPACITY
        assert series.values()[:2] == [20.0, 30.0]
        assert series.dropped == 2
        assert series.recorded == DEFAULT_CAPACITY + 2

    def test_window_is_half_open_on_the_left(self):
        series = filled([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        # since < at <= until: back-to-back windows partition the line.
        assert series.values(since_ms=1.0, until_ms=2.0) == [2.0]
        assert series.values(since_ms=2.0, until_ms=3.0) == [3.0]
        assert series.values(since_ms=0.0, until_ms=1.0) == [1.0]

    def test_to_dict_round_trips_samples(self):
        series = filled([(1.0, 2.0)])
        doc = series.to_dict()
        assert doc["name"] == "t.series"
        assert doc["samples"] == [[1.0, 2.0]]
        assert doc["recorded"] == 1 and doc["dropped"] == 0


class TestEdgeCaseQueries:
    """The percentile and retention edge cases, pinned."""

    def test_empty_series(self):
        series = RingSeries("t.empty")
        assert nearest_rank_percentile(series.values(), 0.5) == 0.0
        assert nearest_rank_percentile(series.values(), 0.99) == 0.0
        assert series.max() == 0.0
        assert series.values() == []
        assert series.latest is None

    def test_single_sample(self):
        series = filled([(7.0, 42.0)])
        # Nearest-rank: every percentile of one sample is that sample.
        assert nearest_rank_percentile(series.values(), 0.0) == 42.0
        assert nearest_rank_percentile(series.values(), 0.5) == 42.0
        assert nearest_rank_percentile(series.values(), 1.0) == 42.0
        assert series.values() == [42.0]

    def test_all_equal_samples(self):
        series = filled([(float(i), 5.0) for i in range(10)])
        for q in (0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert nearest_rank_percentile(series.values(), q) == 5.0
        assert series.values() == [5.0] * 10

    def test_percentile_nearest_rank_positions(self):
        series = filled([(float(i), float(i + 1)) for i in range(10)])
        # values 1..10: nearest-rank p50 is the 5th value, p90 the 9th.
        assert nearest_rank_percentile(series.values(), 0.5) == 5.0
        assert nearest_rank_percentile(series.values(), 0.9) == 9.0
        assert nearest_rank_percentile(series.values(), 1.0) == 10.0
        assert nearest_rank_percentile(series.values(), 0.0) == 1.0

    def test_query_window_older_than_retention(self):
        series = RingSeries("t.short")
        for at_ms in range(DEFAULT_CAPACITY + 6):
            series.record(float(at_ms), float(at_ms))
        # Ring retains at=6..; a window reaching back to 0 is truncated.
        assert series.dropped == 6
        assert series.values(since_ms=-1.0)[:4] == [6.0, 7.0, 8.0, 9.0]
        # The answers are still well-defined over what remains.
        assert nearest_rank_percentile(series.values(), 0.0) == 6.0

    def test_covers_true_before_any_eviction(self):
        # Nothing evicted: every sample since any instant is still held.
        series = filled([(5.0, 1.0)])
        assert (series.dropped, series.values(since_ms=0.0)) == (0, [1.0])
        assert RingSeries("t.none").dropped == 0


class TestTimeSeriesStore:
    def test_series_created_on_first_use(self):
        store = TimeSeriesStore()
        assert store.get("a.b.c") is None
        store.record("a.b.c", 1.0, 2.0)
        assert "a.b.c" in store
        assert store.get("a.b.c").values() == [2.0]

    def test_names_sorted(self):
        store = TimeSeriesStore()
        store.record("z.last", 0.0, 1.0)
        store.record("a.first", 0.0, 1.0)
        assert store.names() == ["a.first", "z.last"]

    def test_capacity_propagates(self):
        store = TimeSeriesStore()
        for at_ms in range(DEFAULT_CAPACITY + 2):
            store.record("s.x", float(at_ms), 1.0)
        assert len(store.get("s.x")) == DEFAULT_CAPACITY

    def test_default_capacity(self):
        assert TimeSeriesStore().series("s.y").capacity == DEFAULT_CAPACITY

    def test_to_dict_shape(self):
        store = TimeSeriesStore()
        store.record("s.z", 1.0, 2.0)
        store.windows_sampled = 3
        doc = store.to_dict()
        assert doc["windows_sampled"] == 3
        assert list(doc["series"]) == ["s.z"]


class _FakeQueue:
    name = "fakeq"

    def __init__(self, depth, in_flight=0):
        self._depth = depth
        self.in_flight = in_flight

    def __len__(self):
        return self._depth


class TestFlightRecorder:
    def recorder_pair(self, metrics=None):
        clock = VirtualClock()
        pipeline = PipelineRecorder(clock=clock, metrics=metrics)
        return pipeline, clock

    def test_window_sample_counts_windows(self):
        pipeline, clock = self.recorder_pair()
        flight = FlightRecorder()
        flight.on_window_shipped(pipeline, clock.now)
        flight.on_window_shipped(pipeline, clock.now)
        assert flight.store.windows_sampled == 2

    def test_sample_now_does_not_count_a_window(self):
        pipeline, clock = self.recorder_pair()
        flight = FlightRecorder()
        flight.sample_now(pipeline, clock.now)
        assert flight.store.windows_sampled == 0

    def test_queue_depth_sampled(self):
        pipeline, clock = self.recorder_pair()
        flight = FlightRecorder()
        flight.watch_queue(_FakeQueue(depth=3, in_flight=2))
        flight.on_window_shipped(pipeline, 10.0)
        assert flight.store.get("queue.fakeq.depth").values() == [5.0]

    def test_watch_queue_after_construction(self):
        pipeline, clock = self.recorder_pair()
        flight = FlightRecorder()
        flight.watch_queue(_FakeQueue(depth=1))
        flight.on_window_shipped(pipeline, 0.0)
        assert "queue.fakeq.depth" in flight.store

    def test_metrics_sampled_as_series(self):
        metrics = MetricsRegistry()
        pipeline, clock = self.recorder_pair(metrics=metrics)
        metrics.counter("engine.rows.read").inc(7)
        flight = FlightRecorder(metrics=metrics)
        flight.on_window_shipped(pipeline, 1.0)
        metrics.counter("engine.rows.read").inc(3)
        flight.on_window_shipped(pipeline, 2.0)
        series = flight.store.get("metric.engine.rows.read")
        assert series.values() == [7.0, 10.0]

    def test_lag_samples_are_fresh_per_window(self):
        pipeline, clock = self.recorder_pair()
        flight = FlightRecorder()
        pipeline.lags["end_to_end"].add(100.0)
        flight.on_window_shipped(pipeline, 1.0)
        pipeline.lags["end_to_end"].add(300.0)
        flight.on_window_shipped(pipeline, 2.0)
        series = flight.store.get("lag.end_to_end.mean_ms")
        # Second sample reflects only the new 300ms lag, not the
        # cumulative mean of both.
        assert series.values() == [100.0, 300.0]

    def test_no_fresh_lags_records_nothing(self):
        pipeline, clock = self.recorder_pair()
        flight = FlightRecorder()
        pipeline.lags["end_to_end"].add(50.0)
        flight.on_window_shipped(pipeline, 1.0)
        flight.on_window_shipped(pipeline, 2.0)
        assert len(flight.store.get("lag.end_to_end.mean_ms")) == 1
