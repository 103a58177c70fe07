"""Unit tests for the metrics half of :mod:`repro.obs`."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    qualify,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestNaming:
    def test_three_part_names_accepted(self, registry):
        registry.counter("engine.buffer.hit")
        registry.counter("a.b.c.d")

    @pytest.mark.parametrize(
        "bad", ["hit", "engine.hit", "Engine.buffer.hit", "engine..hit", ""]
    )
    def test_bad_names_rejected(self, registry, bad):
        with pytest.raises(ObservabilityError):
            registry.counter(bad)

    def test_qualify_renders_sorted_labels(self):
        assert qualify("a.b.c", {}) == "a.b.c"
        assert qualify("a.b.c", {"z": 1, "a": "x"}) == "a.b.c{a=x,z=1}"

    def test_kind_clash_rejected(self, registry):
        registry.counter("engine.buffer.hit")
        with pytest.raises(ObservabilityError):
            registry.gauge("engine.buffer.hit")


class TestCounter:
    def test_get_or_create_is_idempotent(self, registry):
        first = registry.counter("engine.buffer.hit")
        second = registry.counter("engine.buffer.hit")
        assert first is second

    def test_inc(self, registry):
        counter = registry.counter("engine.buffer.hit")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_inc_rejects_negative(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("engine.buffer.hit").inc(-1)

    def test_labels_split_series(self, registry):
        registry.counter("engine.buffer.hit", db="a").inc(2)
        registry.counter("engine.buffer.hit", db="b").inc(3)
        assert registry.value("engine.buffer.hit", db="a") == 2
        assert registry.value("engine.buffer.hit", db="b") == 3
        assert registry.total("engine.buffer.hit") == 5


class TestGauge:
    def test_set_and_high_water(self, registry):
        gauge = registry.gauge("transport.queue.depth")
        gauge.set(4)
        gauge.set(10)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.high_water == 10

    def test_add(self, registry):
        gauge = registry.gauge("transport.queue.depth")
        gauge.add(3)
        gauge.add(-1)
        assert gauge.value == 2
        assert gauge.high_water == 3


class TestHistogram:
    def test_stats(self, registry):
        histogram = registry.histogram("warehouse.olap.query_ms")
        for value in (1.0, 2.0, 3.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 106.0
        assert histogram.mean == 26.5
        assert histogram.min == 1.0
        assert histogram.max == 100.0

    def test_quantile_uses_bucket_bounds(self, registry):
        histogram = registry.histogram("warehouse.olap.query_ms")
        for _ in range(99):
            histogram.observe(0.9)
        histogram.observe(900.0)
        assert histogram.quantile(0.5) == 1.0  # bucket bound above 0.9
        assert histogram.quantile(1.0) == 1_000.0

    def test_overflow_bucket(self, registry):
        histogram = registry.histogram("warehouse.olap.query_ms")
        histogram.observe(DEFAULT_BUCKETS[-1] * 10)
        assert histogram.quantile(1.0) == DEFAULT_BUCKETS[-1] * 10
        assert histogram.bucket_counts[-1] == 1

    def test_summary_keys(self, registry):
        histogram = registry.histogram("warehouse.olap.query_ms")
        histogram.observe(5.0)
        summary = histogram.summary()
        assert set(summary) == {"count", "sum", "min", "max", "mean", "p50", "p95"}


class TestRegistryExport:
    def test_snapshot_shape(self, registry):
        registry.counter("engine.disk.read", db="x").inc(7)
        registry.gauge("transport.queue.depth").set(3)
        registry.histogram("warehouse.olap.query_ms").observe(1.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"engine.disk.read{db=x}": 7}
        assert snap["gauges"] == {
            "transport.queue.depth": {"value": 3, "high_water": 3}
        }
        assert snap["histograms"]["warehouse.olap.query_ms"]["count"] == 1

    def test_to_json_round_trips(self, registry):
        registry.counter("engine.disk.read").inc()
        assert json.loads(json.dumps(registry.snapshot()))["counters"] == {
            "engine.disk.read": 1
        }

    def test_instruments_sorted(self, registry):
        registry.counter("engine.wal.force")
        registry.counter("engine.buffer.hit")
        names = [i.qualified_name for i in registry.instruments()]
        assert names == sorted(names)

    def test_value_of_absent_series_is_zero(self, registry):
        assert registry.value("engine.never.recorded") == 0.0


class TestLabelledView:
    def test_fixed_labels_applied(self, registry):
        view = registry.labelled(db="src")
        view.counter("engine.buffer.hit").inc()
        assert registry.value("engine.buffer.hit", db="src") == 1

    def test_call_site_labels_win(self, registry):
        view = registry.labelled(db="src")
        view.counter("engine.buffer.hit", db="override").inc()
        assert registry.value("engine.buffer.hit", db="override") == 1

    def test_views_nest(self, registry):
        view = registry.labelled(db="src").labelled(table="parts")
        view.counter("engine.table.rows_scanned").inc(5)
        assert registry.value(
            "engine.table.rows_scanned", db="src", table="parts"
        ) == 5


class TestNullRegistry:
    def test_records_nothing(self):
        null = NullRegistry()
        null.counter("engine.buffer.hit").inc(100)
        null.gauge("a.b.c").set(5)
        null.histogram("d.e.f").observe(1.0)
        assert null.counter("engine.buffer.hit").value == 0
        assert len(null) == 0
        assert null.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_shared_singletons(self):
        assert NULL_REGISTRY.counter("a.b.c") is NULL_REGISTRY.counter("x.y.z")
        assert NULL_REGISTRY.labelled(db="x") is NULL_REGISTRY

    def test_disabled_flag(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True
