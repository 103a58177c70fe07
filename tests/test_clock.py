"""Tests for the virtual clock."""

import pytest

from repro.clock import VirtualClock, format_duration


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(10.0)
        clock.advance(2.5)
        assert clock.now == pytest.approx(12.5)

    def test_advance_returns_new_time(self):
        clock = VirtualClock()
        assert clock.advance(3.0) == pytest.approx(3.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_zero_advance_allowed(self):
        clock = VirtualClock()
        clock.advance(0.0)
        assert clock.now == 0.0

    def test_timestamps_strictly_increase_without_cost(self):
        clock = VirtualClock()
        stamps = [clock.timestamp() for _ in range(100)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 100

    def test_timestamp_tracks_time(self):
        clock = VirtualClock()
        first = clock.timestamp()
        clock.advance(1000.0)
        assert clock.timestamp() > first + 999


class TestStopwatch:
    def test_measures_elapsed(self):
        clock = VirtualClock()
        with clock.stopwatch() as watch:
            clock.advance(42.0)
        assert watch.elapsed == pytest.approx(42.0)

    def test_isolates_outside_charges(self):
        clock = VirtualClock()
        clock.advance(100.0)
        with clock.stopwatch() as watch:
            clock.advance(7.0)
        clock.advance(100.0)
        assert watch.elapsed == pytest.approx(7.0)

    def test_live_reading_inside_block(self):
        clock = VirtualClock()
        with clock.stopwatch() as watch:
            clock.advance(5.0)
            assert watch.elapsed == pytest.approx(5.0)
            clock.advance(5.0)
        assert watch.elapsed == pytest.approx(10.0)

    def test_reusable(self):
        clock = VirtualClock()
        watch = clock.stopwatch()
        with watch:
            clock.advance(1.0)
        with watch:
            clock.advance(2.0)
        assert watch.elapsed == pytest.approx(2.0)


class TestFormatDuration:
    def test_milliseconds(self):
        assert format_duration(117) == "117 ms"

    def test_seconds(self):
        assert format_duration(5_500) == "5.5 s"

    def test_minutes(self):
        assert format_duration(3 * 60_000) == "3 min"

    def test_hours_and_minutes(self):
        assert format_duration(92 * 60_000) == "1 hr 32 min"

    def test_exact_hour(self):
        assert format_duration(120 * 60_000) == "2 hr"

    def test_rounding_up_to_next_hour(self):
        assert format_duration(119.6 * 60_000) == "2 hr"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1)
