"""Lineage events, correlation keys and the bounded event log."""

from dataclasses import dataclass

from repro.obs.pipeline import EventLog, LifecycleKind, LineageEvent
from repro.obs.pipeline.events import lineage_key, lineage_source


@dataclass
class FakeOp:
    table: str = "parts"
    txn_id: int = 7
    sequence: int = 3
    captured_at: float = 10.0
    lineage_id: str | None = None


def event(kind=LifecycleKind.CAPTURED, cid="s:1", at=1.0, **kwargs):
    return LineageEvent(kind=kind, correlation_id=cid, at_ms=at, **kwargs)


class TestLineageKeys:
    def test_stamped_op_uses_its_lineage_id(self):
        assert lineage_key(FakeOp(lineage_id="src:42")) == "src:42"

    def test_unstamped_op_falls_back_to_txn_and_sequence(self):
        assert lineage_key(FakeOp()) == "txn7:op3"

    def test_object_without_lineage_attribute_still_keys(self):
        class Bare:
            txn_id = 2
            sequence = 9

        assert lineage_key(Bare()) == "txn2:op9"

    def test_source_parsed_from_stamped_id(self):
        assert lineage_source(FakeOp(lineage_id="my-db:42")) == "my-db"

    def test_source_survives_colons_in_the_source_name(self):
        assert lineage_source(FakeOp(lineage_id="host:5432:42")) == "host:5432"

    def test_unstamped_source_defaults(self):
        assert lineage_source(FakeOp()) == "unstamped"


class TestLineageEvent:
    def test_render_names_stage_and_position(self):
        text = event(
            kind=LifecycleKind.APPLIED,
            cid="src:5",
            at=12.5,
            table="parts",
            txn_id=4,
            detail="rule=fold",
        ).render()
        assert "applied" in text
        assert "src:5" in text
        assert "[rule=fold]" in text

    def test_to_dict_round_trips_the_kind_as_a_string(self):
        payload = event(kind=LifecycleKind.REDELIVERED).to_dict()
        assert payload["kind"] == "redelivered"
        assert payload["correlation_id"] == "s:1"


class TestEventLog:
    def test_append_and_iterate_in_order(self):
        log = EventLog()
        log.append(event(cid="a:1"))
        log.append(event(cid="a:2"))
        assert [e.correlation_id for e in log] == ["a:1", "a:2"]
        assert len(log) == 2

    def test_eviction_is_bounded_and_counted(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.append(event(cid=f"a:{i}"))
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.correlation_id for e in log] == ["a:2", "a:3", "a:4"]

    def test_counts_survive_eviction(self):
        log = EventLog(capacity=2)
        for i in range(10):
            log.append(event(kind=LifecycleKind.CAPTURED, cid=f"a:{i}"))
        log.append(event(kind=LifecycleKind.APPLIED, cid="a:0"))
        assert log.total(LifecycleKind.CAPTURED) == 10
        assert log.total(LifecycleKind.APPLIED) == 1
        assert log.total(LifecycleKind.PRUNED) == 0

    def test_for_correlation_returns_one_ops_history(self):
        log = EventLog()
        log.append(event(kind=LifecycleKind.CAPTURED, cid="s:1", at=1.0))
        log.append(event(kind=LifecycleKind.CAPTURED, cid="s:2", at=2.0))
        log.append(event(kind=LifecycleKind.APPLIED, cid="s:1", at=3.0))
        history = [e for e in log if e.correlation_id == "s:1"]
        assert [e.kind for e in history] == [
            LifecycleKind.CAPTURED,
            LifecycleKind.APPLIED,
        ]
