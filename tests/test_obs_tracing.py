"""Unit tests for the tracing half of :mod:`repro.obs`."""

import pytest

from repro.clock import VirtualClock
from repro.errors import ObservabilityError
from repro.obs import NULL_TRACER, NullTracer, Tracer
from repro.obs.context import ambient_metrics, ambient_tracer, observe


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def tracer(clock) -> Tracer:
    tracer = Tracer()
    tracer.bind(clock)
    return tracer


class TestSpans:
    def test_span_measures_virtual_time(self, tracer, clock):
        with tracer.span("extract.timestamp.scan"):
            clock.advance(25.0)
        (span,) = tracer.spans
        assert span.duration_ms == 25.0
        assert span.start_ms == 0.0
        assert not span.is_open

    def test_nesting_depth_and_parents(self, tracer, clock):
        with tracer.span("a.b.outer") as outer:
            with tracer.span("a.b.inner") as inner:
                clock.advance(1.0)
            assert inner.parent is outer
        assert outer.depth == 0 and inner.depth == 1
        assert [s for s in tracer.spans if s.parent is None] == [outer]
        assert tracer.children(outer) == [inner]
        assert tracer._stack == []

    def test_open_span_has_no_duration(self, tracer):
        handle = tracer.span("a.b.open")
        with pytest.raises(ObservabilityError):
            _ = handle.span.duration_ms

    def test_out_of_order_close_rejected(self, tracer, clock):
        outer = tracer.span("a.b.outer")
        tracer.span("a.b.inner")
        with pytest.raises(ObservabilityError):
            tracer._close(outer.span, clock)

    def test_span_args_recorded(self, tracer):
        with tracer.span("a.b.c", table="parts", size=3) as span:
            pass
        assert span.args == {"table": "parts", "size": 3}

    def test_no_clock_is_an_error(self):
        with pytest.raises(ObservabilityError):
            Tracer().span("a.b.c")

    def test_total_root_ms(self, tracer, clock):
        with tracer.span("a.b.one"):
            clock.advance(10.0)
        clock.advance(5.0)  # outside any span
        with tracer.span("a.b.two"):
            clock.advance(20.0)
        roots = [s for s in tracer.spans if s.parent is None]
        assert sum(s.duration_ms for s in roots) == 30.0


class TestBoundTracer:
    def test_two_clocks_one_tracer(self):
        tracer = Tracer()
        source_clock, warehouse_clock = VirtualClock(), VirtualClock()
        source = tracer.bound(source_clock)
        warehouse = tracer.bound(warehouse_clock)
        with source.span("extract.a.b"):
            source_clock.advance(7.0)
        with warehouse.span("warehouse.a.b"):
            warehouse_clock.advance(3.0)
        durations = {s.name: s.duration_ms for s in tracer.spans}
        assert durations == {"extract.a.b": 7.0, "warehouse.a.b": 3.0}

    def test_bind_adopts_first_clock_only(self, clock):
        tracer = Tracer()
        tracer.bind(clock)
        other = VirtualClock()
        tracer.bind(other)  # no-op: already bound
        with tracer.span("a.b.c"):
            clock.advance(1.0)
        assert tracer.spans[0].duration_ms == 1.0


class TestChromeExport:
    def test_events_are_microseconds(self, tracer, clock):
        clock.advance(2.0)
        with tracer.span("a.b.c", table="t"):
            clock.advance(5.0)
        (event,) = tracer.chrome_trace_events()
        assert event["ph"] == "X"
        assert event["ts"] == 2000.0
        assert event["dur"] == 5000.0
        assert event["args"] == {"table": "t"}

    def test_process_name_metadata(self, tracer, clock):
        with tracer.span("a.b.c"):
            clock.advance(1.0)
        events = tracer.chrome_trace_events(pid=7, process_name="table2")
        assert events[0] == {
            "name": "process_name", "ph": "M", "pid": 7, "tid": 0,
            "args": {"name": "table2"},
        }
        assert all(e["pid"] == 7 for e in events)

    def test_open_spans_skipped(self, tracer, clock):
        tracer.span("a.b.open")
        assert tracer.chrome_trace_events() == []


class TestNullTracer:
    def test_span_is_allocation_free_noop(self):
        null = NullTracer()
        first = null.span("a.b.c")
        second = null.span("d.e.f", table="x")
        assert first is second
        with first:
            pass
        assert null.spans == []

    def test_bound_returns_self(self, clock):
        assert NULL_TRACER.bound(clock) is NULL_TRACER
        assert NULL_TRACER.enabled is False


class TestAmbientContext:
    def test_defaults_are_none(self):
        assert ambient_metrics() is None
        assert ambient_tracer() is None

    def test_observe_installs_and_restores(self):
        with observe() as context:
            assert ambient_metrics() is context.metrics
            assert ambient_tracer() is context.tracer
        assert ambient_metrics() is None

    def test_observe_nests(self):
        with observe() as outer:
            with observe() as inner:
                assert ambient_metrics() is inner.metrics
            assert ambient_metrics() is outer.metrics
