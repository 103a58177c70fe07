"""Per-(stage x entity) cost attribution (repro.obs.flight.attribution)."""

from collections import Counter

import pytest

from repro.clock import VirtualClock
from repro.errors import ObservabilityError
from repro.obs.flight import CostAttributor, entity_of, stage_of
from repro.obs.tracing import Tracer


def traced(builder):
    """Run ``builder(tracer, clock)`` and return the quiesced tracer."""
    clock = VirtualClock()
    tracer = Tracer()
    tracer.bind(clock)
    builder(tracer, clock)
    return tracer


class TestStageMapping:
    def test_prefix_table(self):
        assert stage_of("capture.opdelta.statement") == "capture"
        assert stage_of("capture.check.statement") == "check"
        assert stage_of("compaction.window") == "compact"
        assert stage_of("transport.prune.window") == "prune"
        assert stage_of("transport.ship.op_deltas") == "ship"
        assert stage_of("transport.queue.enqueue_window") == "ship"
        assert stage_of("warehouse.apply.statement") == "apply"
        assert stage_of("warehouse.view.delta") == "apply"
        assert stage_of("warehouse.olap.query") == "query"
        assert stage_of("extract.snapshot") == "extract"
        assert stage_of("engine.page.read") == "engine"

    def test_specific_prefix_shadows_general(self):
        # capture.check must map to 'check' even though 'capture.' matches.
        assert stage_of("capture.check") == "check"

    def test_unmapped_name_is_other(self):
        assert stage_of("mystery.subsystem.thing") == "other"


class TestEntityMapping:
    def test_precedence_view_over_table_over_source(self):
        assert entity_of({"table": "parts", "view": "catalog"}) == "catalog"
        assert entity_of({"source": "s", "table": "parts"}) == "parts"
        assert entity_of({"db": "d", "source": "s"}) == "s"
        assert entity_of({"db": "d"}) == "d"

    def test_no_entity(self):
        assert entity_of({}) == "-"
        assert entity_of({"bytes": 512}) == "-"

    def test_entity_stringified(self):
        assert entity_of({"table": 7}) == "7"


class TestConservation:
    def test_nested_spans_sum_exactly(self):
        def build(tracer, clock):
            with tracer.span("capture.opdelta.statement", table="parts"):
                clock.advance(3.25)
                with tracer.span("capture.check.statement", table="parts"):
                    clock.advance(1.125)
                clock.advance(0.5)

        ledger = CostAttributor().attribute(traced(build))
        assert ledger.is_conservative()
        assert ledger.ledger_ns() == ledger.total_traced_ns
        assert ledger.total_traced_ms == pytest.approx(4.875)
        # Self time: capture = 3.25 + 0.5, check = 1.125.
        assert ledger.row("capture", "parts").self_ms == pytest.approx(3.75)
        assert ledger.row("check", "parts").self_ms == pytest.approx(1.125)

    def test_multiple_roots_sum(self):
        def build(tracer, clock):
            with tracer.span("transport.ship.op_deltas"):
                clock.advance(2.0)
            with tracer.span("warehouse.apply.statement", table="parts"):
                clock.advance(5.0)

        ledger = CostAttributor().attribute(traced(build))
        assert ledger.is_conservative()
        assert ledger.total_traced_ms == pytest.approx(7.0)
        assert ledger.span_count == 2

    def test_awkward_float_durations_stay_exact(self):
        # 0.1-ms ticks are the classic float-drift trap: the integer-ns
        # ledger must still balance to the nanosecond.
        def build(tracer, clock):
            with tracer.span("engine.page.read", db="src"):
                for _ in range(7):
                    with tracer.span("engine.page.scan", db="src"):
                        clock.advance(0.1)
                clock.advance(0.1)

        ledger = CostAttributor().attribute(traced(build))
        assert ledger.is_conservative()
        assert ledger.total_traced_ns == ledger.ledger_ns()

    def test_zero_duration_spans(self):
        def build(tracer, clock):
            with tracer.span("capture.opdelta.statement", table="t"):
                pass

        ledger = CostAttributor().attribute(traced(build))
        assert ledger.is_conservative()
        assert ledger.total_traced_ns == 0

    def test_empty_tracer(self):
        ledger = CostAttributor().attribute(Tracer())
        assert ledger.is_conservative()
        assert ledger.span_count == 0
        assert len(ledger) == 0
        assert ledger.rows() == []

    def test_open_span_rejected(self):
        tracer = Tracer()
        # Never closed:
        tracer.span("capture.opdelta.statement", clock=VirtualClock(), table="t")
        with pytest.raises(ObservabilityError, match="still open"):
            CostAttributor().attribute(tracer)


class TestLedgerQueries:
    def ledger(self):
        def build(tracer, clock):
            with tracer.span("warehouse.apply.statement", table="parts"):
                clock.advance(10.0)
            with tracer.span("warehouse.view.delta", view="catalog"):
                clock.advance(6.0)
            with tracer.span("transport.ship.op_deltas"):
                clock.advance(2.0)

        return CostAttributor().attribute(traced(build))

    def test_rows_sorted_by_descending_self_time(self):
        rows = self.ledger().rows()
        assert [(r.stage, r.entity) for r in rows] == [
            ("apply", "parts"),
            ("apply", "catalog"),
            ("ship", "-"),
        ]

    def test_top_k(self):
        top = self.ledger().top(2)
        assert len(top) == 2
        assert top[0].entity == "parts"

    def test_stage_and_entity_rollups(self):
        by_stage, by_entity = Counter(), Counter()
        for row in self.ledger().rows():
            by_stage[row.stage] += row.self_ns
            by_entity[row.entity] += row.self_ns
        assert (by_stage["apply"], by_stage["ship"]) == (16_000_000, 2_000_000)
        assert (by_entity["parts"], by_entity["-"]) == (10_000_000, 2_000_000)

    def test_row_lookup(self):
        ledger = self.ledger()
        assert ledger.row("ship").spans == 1
        assert ledger.row("ship", "-") is ledger.row("ship")
        assert ledger.row("apply", "missing") is None

    def test_to_dict_carries_conservation_flag(self):
        doc = self.ledger().to_dict()
        assert doc["conservative"] is True
        assert doc["span_count"] == 3
        assert doc["total_traced_ns"] == sum(
            row["self_ns"] for row in doc["rows"]
        )
