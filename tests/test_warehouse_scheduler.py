"""Tests for the availability experiment scheduler."""

import pytest

from repro.errors import SimulationError
from repro.warehouse import run_availability_experiment


class TestBatchMode:
    def test_batch_blocks_queries_for_whole_window(self):
        report = run_availability_experiment(
            maintenance_durations_ms=[1_000.0],
            query_duration_ms=10.0,
            query_interarrival_ms=50.0,
            mode="batch",
        )
        # Some query arrived during the window and waited ~the whole rest.
        assert report.max_wait_ms > 500
        assert report.maintenance_span_ms == pytest.approx(1_000.0)

    def test_batch_mode_ignores_gaps_between_units(self):
        report = run_availability_experiment(
            [100.0, 100.0, 100.0], 10.0, 50.0, mode="batch", unit_gap_ms=999.0
        )
        assert report.maintenance_span_ms == pytest.approx(300.0, abs=1.0)


class TestInterleavedMode:
    def test_waits_bounded_by_unit(self):
        report = run_availability_experiment(
            maintenance_durations_ms=[50.0] * 20,
            query_duration_ms=10.0,
            query_interarrival_ms=40.0,
            mode="interleaved",
            unit_gap_ms=100.0,
        )
        assert report.max_wait_ms <= 60.0  # one unit + epsilon

    def test_better_sla_than_batch(self):
        kwargs = dict(
            query_duration_ms=10.0, query_interarrival_ms=40.0,
            horizon_ms=5_000.0,
        )
        batch = run_availability_experiment(
            [1_000.0], mode="batch", **kwargs
        )
        online = run_availability_experiment(
            [50.0] * 20, mode="interleaved", unit_gap_ms=100.0, **kwargs
        )
        assert online.fraction_within(100.0) > batch.fraction_within(100.0)

    def test_gap_spreads_the_span(self):
        tight = run_availability_experiment(
            [10.0] * 10, 5.0, 100.0, mode="interleaved"
        )
        spread = run_availability_experiment(
            [10.0] * 10, 5.0, 100.0, mode="interleaved", unit_gap_ms=50.0
        )
        assert spread.maintenance_span_ms > tight.maintenance_span_ms


class TestReportMetrics:
    def test_availability_perfect_when_no_maintenance(self):
        report = run_availability_experiment(
            [], 10.0, 50.0, mode="interleaved", horizon_ms=500.0
        )
        assert report.max_wait_ms == 0.0
        assert report.fraction_within(10.0) == 1.0

    def test_query_records_consistent(self):
        report = run_availability_experiment(
            [200.0], 10.0, 50.0, mode="batch"
        )
        for record in report.queries:
            assert record.finished_at >= record.started_at >= record.arrived_at
            assert record.response_ms == pytest.approx(
                record.wait_ms + 10.0, abs=1e-6
            )

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            run_availability_experiment([1.0], 1.0, 1.0, mode="chaotic")

    def test_bad_interarrival_rejected(self):
        with pytest.raises(SimulationError):
            run_availability_experiment([1.0], 1.0, 0.0, mode="batch")
