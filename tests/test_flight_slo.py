"""Burn-rate SLO engine (repro.obs.flight.slo)."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.flight import (
    FreshnessSLO,
    LatencySLO,
    SLOEngine,
    TimeSeriesStore,
    burn_rate,
)


def store_with(name, points):
    store = TimeSeriesStore()
    for at_ms, value in points:
        store.record(name, at_ms, value)
    return store


def freshness(view="v", **overrides):
    defaults = dict(
        target_ms=100.0,
        budget=0.1,
        short_window_ms=100.0,
        long_window_ms=400.0,
        fast_burn=2.0,
        slow_burn=1.0,
    )
    defaults.update(overrides)
    return FreshnessSLO(view, **defaults)


class TestObjectives:
    def test_keys_and_series_names(self):
        slo = freshness("parts_catalog")
        assert slo.key == "freshness:parts_catalog"
        assert slo.series_name == "view.parts_catalog.staleness_ms"
        assert slo.entity == "parts_catalog"
        lat = LatencySLO("end_to_end", target_ms=50.0)
        assert lat.key == "latency:end_to_end"
        assert lat.series_name == "lag.end_to_end.mean_ms"

    def test_describe_states_the_objective(self):
        text = freshness("v", target_ms=250.0, budget=0.05).describe()
        assert "250" in text and "95%" in text

    def test_budget_validation(self):
        engine = SLOEngine(TimeSeriesStore())
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ObservabilityError, match="budget"):
                engine.add(freshness(budget=bad))

    def test_window_order_validation(self):
        engine = SLOEngine(TimeSeriesStore())
        with pytest.raises(ObservabilityError, match="exceeds its long"):
            engine.add(
                freshness(short_window_ms=500.0, long_window_ms=100.0)
            )

    def test_duplicate_key_rejected(self):
        engine = SLOEngine(TimeSeriesStore(), [freshness("v")])
        with pytest.raises(ObservabilityError, match="already registered"):
            engine.add(freshness("v", target_ms=999.0))


class TestBurnRate:
    def test_all_good_is_zero(self):
        store = store_with("s.x", [(i * 10.0, 50.0) for i in range(5)])
        assert burn_rate(store.get("s.x"), 0.0, 100.0, 100.0, 0.1) == 0.0

    def test_all_bad_is_one_over_budget(self):
        store = store_with("s.x", [(i * 10.0, 500.0) for i in range(1, 5)])
        assert burn_rate(store.get("s.x"), 0.0, 100.0, 100.0, 0.1) == 10.0

    def test_half_bad(self):
        store = store_with(
            "s.x", [(10.0, 500.0), (20.0, 50.0), (30.0, 500.0), (40.0, 50.0)]
        )
        assert burn_rate(store.get("s.x"), 0.0, 100.0, 100.0, 0.1) == 5.0

    def test_empty_window_is_zero(self):
        store = store_with("s.x", [(10.0, 500.0)])
        assert burn_rate(store.get("s.x"), 100.0, 200.0, 100.0, 0.1) == 0.0

    def test_target_boundary_sample_is_good(self):
        store = store_with("s.x", [(10.0, 100.0)])
        assert burn_rate(store.get("s.x"), 0.0, 100.0, 100.0, 0.1) == 0.0


class TestEngineTransitions:
    def engine(self, points, **overrides):
        slo = freshness("v", **overrides)
        store = store_with(slo.series_name, points)
        return SLOEngine(store, [slo]), slo

    def test_fires_on_sustained_violation(self):
        # Short window (>=300) and long window (>=0) both violating.
        points = [(i * 50.0, 500.0) for i in range(9)]
        engine, slo = self.engine(points)
        findings = engine.evaluate(400.0)
        assert [f.code for f in findings] == ["SLO001"]
        assert findings[0].severity == "error"
        assert findings[0].at_ms == 400.0
        assert findings[0].entity == "v"
        assert engine.firing == [slo.key]

    def test_short_blip_does_not_fire(self):
        # One bad sample among many good in both windows: long-window
        # burn stays under slow_burn.
        points = [(i * 50.0, 50.0) for i in range(8)] + [(400.0, 500.0)]
        engine, slo = self.engine(points, budget=0.5)
        assert engine.evaluate(400.0) == []
        assert slo.key not in engine.firing

    def test_steady_firing_state_stays_quiet(self):
        points = [(i * 50.0, 500.0) for i in range(9)]
        engine, _slo = self.engine(points)
        assert len(engine.evaluate(400.0)) == 1
        # Same state re-evaluated: no duplicate finding.
        assert engine.evaluate(401.0) == []
        assert len(engine.history) == 1

    def test_clears_when_short_burn_recovers(self):
        points = [(i * 50.0, 500.0) for i in range(9)]
        engine, slo = self.engine(points)
        engine.evaluate(400.0)
        # Healthy samples fill the short window past the bad ones.
        store = engine.store
        for at_ms in (450.0, 500.0, 550.0):
            store.record(slo.series_name, at_ms, 10.0)
        findings = engine.evaluate(550.0)
        assert [f.code for f in findings] == ["SLO002"]
        assert findings[0].severity == "info"
        assert slo.key not in engine.firing

    def test_latency_objective_uses_003_004(self):
        slo = LatencySLO(
            "end_to_end",
            target_ms=100.0,
            short_window_ms=100.0,
            long_window_ms=400.0,
        )
        store = store_with(
            slo.series_name, [(i * 50.0, 500.0) for i in range(9)]
        )
        engine = SLOEngine(store, [slo])
        assert [f.code for f in engine.evaluate(400.0)] == ["SLO003"]
        for at_ms in (450.0, 500.0, 550.0):
            store.record(slo.series_name, at_ms, 10.0)
        assert [f.code for f in engine.evaluate(550.0)] == ["SLO004"]

    def test_no_data_warns(self):
        engine = SLOEngine(TimeSeriesStore(), [freshness("v")])
        findings = engine.evaluate(100.0)
        assert [f.code for f in findings] == ["SLO005"]
        assert findings[0].severity == "warning"

    def test_no_data_while_firing_keeps_firing(self):
        points = [(i * 50.0, 500.0) for i in range(9)]
        engine, slo = self.engine(points)
        engine.evaluate(400.0)
        # Replace the store behind the engine with an empty one: data loss
        # must not read as recovery.
        engine.store = TimeSeriesStore()
        assert engine.evaluate(500.0) == []
        assert slo.key in engine.firing

    def test_finding_render_and_dict(self):
        points = [(i * 50.0, 500.0) for i in range(9)]
        engine, _slo = self.engine(points)
        finding = engine.evaluate(400.0)[0]
        text = finding.render()
        assert "[SLO001]" in text and "@400ms" in text
        doc = finding.to_dict()
        assert doc["code"] == "SLO001"
        assert doc["short_burn"] > 0

    def test_to_dict_shape(self):
        points = [(i * 50.0, 500.0) for i in range(9)]
        engine, slo = self.engine(points)
        engine.evaluate(400.0)
        doc = engine.to_dict()
        assert [o["key"] for o in doc["objectives"]] == [slo.key]
        assert doc["objectives"][0]["kind"] == "freshness"
        assert doc["objectives"][0]["firing"] is True
        assert [f["code"] for f in doc["findings"]] == ["SLO001"]

    def test_deterministic_finding_positions(self):
        points = [(i * 50.0, 500.0) for i in range(9)]
        a, _ = self.engine(points)
        b, _ = self.engine(points)
        a.evaluate(400.0)
        b.evaluate(400.0)
        assert [f.to_dict() for f in a.history] == [
            f.to_dict() for f in b.history
        ]
