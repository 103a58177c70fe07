"""One record shape: each record that inherits ``repro.plain.Record`` writes
the JSON its hand-written ``to_dict`` wrote, key for key and type for type."""

import enum
from dataclasses import dataclass, field

import pytest

from repro.analysis.certify.certifier import RaceFinding
from repro.analysis.certify.schedule import LaneSchedule
from repro.analysis.verify.domain import ScopeConfig
from repro.analysis.verify.findings import Counterexample, VerifyFinding
from repro.compaction.report import AbsorbedEdge, ReorderObligation
from repro.core.opdelta import OpKind
from repro.obs.flight.slo import SLOFinding
from repro.obs.introspect.forensics import CriticalPathRow, StageBlame
from repro.obs.introspect.meta import TableDelta
from repro.obs.pipeline.auditor import AuditFinding
from repro.obs.pipeline.events import LifecycleKind, LineageEvent
from repro.obs.pipeline.recorder import RaceRecord
from repro.obs.pipeline.snapshot import PipelineSnapshot
from repro.obs.pipeline.watermarks import (
    SourceWatermark,
    TableWatermark,
    ViewFreshness,
)
from repro.plain import Record, plain
from repro.semantics.diagnostics import Diagnostic, Severity
from repro.semantics.planner import (
    DeltaRule,
    MaintenancePlan,
    RuleAction,
    ViewClass,
)


def records():
    diagnostic = Diagnostic("SEM006", Severity.WARNING, "coerced", 7)
    rule = DeltaRule(OpKind.UPDATE, RuleAction.DYNAMIC, True, "per statement")
    example = Counterexample(
        rows=((1, "a", 2.5),), op_sql="DELETE FROM t", op_kind="DELETE",
        before_image=((1, "a", 2.5),), dim_rows=((9,),),
        observed="[]", expected="[(1,)]",
    )
    source = SourceWatermark(source="src", high_seq=9, low_seq=4, captured=9, settled=6)
    source.capture(11)
    return {
        "LineageEvent": LineageEvent(
            LifecycleKind.APPLIED, "src:3", 1.5, "src", "t", 2, 3, "rule=fold"
        ),
        "AuditFinding": AuditFinding(
            "AUD001", "error", "lost", "src:3", "src", "t", 3, "shipped"
        ),
        "RaceRecord": RaceRecord("RACE101", "src:1", "src:2", "t", 4.0, "x"),
        "SourceWatermark": source,
        "TableWatermark": TableWatermark("src", "t", 5, 3, 12.0, 10.5),
        "ViewFreshness": ViewFreshness("v", 3, 10.5, None),
        "PipelineSnapshot": PipelineSnapshot(
            generated_at_ms=20.0, sources=[{"source": "src"}],
            stage_lags={"ship": {"count": 1.0}}, events={"applied": 2},
            events_dropped=1, conservation={"captured": 2}, verdict="CLEAN",
            findings=[{"code": "AUD001"}], digest_checks={"t": True},
            extras={"pipelines": [1, 2]},
        ),
        "SLOFinding": SLOFinding(
            "SLO001", "page", 30.0, "freshness", "v", "burning", 14.4, 6.0
        ),
        "CriticalPathRow": CriticalPathRow(
            "src:3", "src", "t", 2, ("v1", "v2"), 0.5, 1.0, 3.0, 2.0, 6.5
        ),
        "StageBlame": StageBlame("t", 4, {"ship": 1.0, "queue": 2.0}, 3.0),
        "TableDelta": TableDelta("t", 1, 2, 3),
        "RaceFinding": RaceFinding(
            "RACE102", "reordered", "t", 1, 2, "src:1", "src:2", 0, 1,
            ("src:2", "src:1"),
        ),
        "LaneSchedule": LaneSchedule(lanes=((1, 2), (3,))),
        "Counterexample": example,
        "ScopeConfig": ScopeConfig(),
        "VerifyFinding": VerifyFinding(
            "RULE001", Severity.ERROR, "v", "DELETE", "diverged", example
        ),
        "AbsorbedEdge": AbsorbedEdge("src:1", None, "annihilate"),
        "ReorderObligation": ReorderObligation("src:3", "src:2", "t", 1, 3, 2),
        "Diagnostic": diagnostic,
        "DeltaRule": rule,
        "MaintenancePlan": MaintenancePlan(
            "v", "t", "spj", ViewClass.SELF_MAINTAINABLE_HYBRID, (rule,),
            (diagnostic,),
        ),
    }


EXAMPLE = {
    "rows": [[1, "a", 2.5]], "op_sql": "DELETE FROM t", "op_kind": "DELETE",
    "before_image": [[1, "a", 2.5]], "dim_rows": [[9]], "observed": "[]",
    "expected": "[(1,)]", "error": "",
}

#: What each class's hand-written ``to_dict`` returned for ``records()``.
EXPECTED = {
    "LineageEvent": [
        ("kind", "applied"), ("correlation_id", "src:3"), ("at_ms", 1.5),
        ("source", "src"), ("table", "t"), ("txn_id", 2), ("sequence", 3),
        ("detail", "rule=fold"),
    ],
    "AuditFinding": [
        ("code", "AUD001"), ("severity", "error"), ("message", "lost"),
        ("correlation_id", "src:3"), ("source", "src"), ("table", "t"),
        ("sequence", 3), ("stage", "shipped"),
    ],
    "RaceRecord": [
        ("code", "RACE101"), ("op_a", "src:1"), ("op_b", "src:2"),
        ("table", "t"), ("at_ms", 4.0), ("detail", "x"),
    ],
    "SourceWatermark": [
        ("source", "src"), ("low_seq", 10), ("high_seq", 11), ("captured", 10),
        ("settled", 6), ("in_flight", 4),
    ],
    "TableWatermark": [
        ("source", "src"), ("table", "t"), ("captured_ops", 5),
        ("applied_ops", 3), ("captured_through_ms", 12.0),
        ("applied_through_ms", 10.5), ("lag_ms", 1.5),
    ],
    "ViewFreshness": [
        ("view", "v"), ("ops_applied", 3), ("applied_through_ms", 10.5),
        ("last_applied_at_ms", None),
    ],
    "PipelineSnapshot": [
        ("generated_at_ms", 20.0), ("sources", [{"source": "src"}]),
        ("tables", []), ("views", []), ("stage_lags", {"ship": {"count": 1.0}}),
        ("events", {"applied": 2}), ("events_dropped", 1),
        ("conservation", {"captured": 2}), ("verdict", "CLEAN"),
        ("findings", [{"code": "AUD001"}]), ("digest_checks", {"t": True}),
        ("extras", {"pipelines": [1, 2]}),
    ],
    "SLOFinding": [
        ("code", "SLO001"), ("severity", "page"), ("at_ms", 30.0),
        ("objective", "freshness"), ("entity", "v"), ("message", "burning"),
        ("short_burn", 14.4), ("long_burn", 6.0),
    ],
    "CriticalPathRow": [
        ("correlation_id", "src:3"), ("source", "src"), ("table", "t"),
        ("window_index", 2), ("views", ["v1", "v2"]), ("check_ms", 0.5),
        ("ship_ms", 1.0), ("queue_ms", 3.0), ("apply_ms", 2.0),
        ("end_to_end_ms", 6.5), ("critical_stage", "queue"),
    ],
    "StageBlame": [
        ("label", "t"), ("ops", 4), ("segments", {"ship": 1.0, "queue": 2.0}),
        ("total_ms", 3.0), ("critical_stage", "queue"),
    ],
    "TableDelta": [("table", "t"), ("inserted", 1), ("updated", 2), ("deleted", 3)],
    "RaceFinding": [
        ("code", "RACE102"), ("message", "reordered"), ("table", "t"),
        ("txn_a", 1), ("txn_b", 2), ("op_a", "src:1"), ("op_b", "src:2"),
        ("lane_a", 0), ("lane_b", 1), ("witness", ["src:2", "src:1"]),
    ],
    "LaneSchedule": [("lanes", [[1, 2], [3]])],
    "Counterexample": list(EXAMPLE.items()),
    # Written inside a PlanCertificate's JSON, under "scope".
    "ScopeConfig": [
        ("max_rows", 2), ("max_databases", 14), ("max_ops_per_kind", 10),
        ("redelivery_probes", 150),
    ],
    "VerifyFinding": [
        ("code", "RULE001"), ("severity", "error"), ("view", "v"),
        ("kind", "DELETE"), ("message", "diverged"), ("counterexample", EXAMPLE),
    ],
    "AbsorbedEdge": [
        ("absorbed", "src:1"), ("absorbed_by", None), ("rule", "annihilate"),
    ],
    "ReorderObligation": [
        ("moved", "src:3"), ("over", "src:2"), ("table", "t"), ("txn_id", 1),
        ("moved_sequence", 3), ("over_sequence", 2),
    ],
    "Diagnostic": [
        ("code", "SEM006"), ("severity", "warning"), ("message", "coerced"),
        ("position", 7),
    ],
    "DeltaRule": [
        ("kind", "UPDATE"), ("action", "dynamic"), ("needs_before_image", True),
        ("reason", "per statement"),
    ],
    "MaintenancePlan": [
        ("view", "v"), ("base_table", "t"), ("view_kind", "spj"),
        ("classification", "self-maintainable-hybrid"),
        ("rules", [{
            "kind": "UPDATE", "action": "dynamic", "needs_before_image": True,
            "reason": "per statement",
        }]),
        ("diagnostics", [{
            "code": "SEM006", "severity": "warning", "message": "coerced",
            "position": 7,
        }]),
    ],
}


def shape(value):
    """``value``'s types, nested: ``1 == 1.0`` and ``[1] == [True]`` hide them."""
    if isinstance(value, dict):
        return {key: shape(item) for key, item in value.items()}
    if isinstance(value, list):
        return [shape(item) for item in value]
    return type(value)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_a_converted_record_writes_what_it_wrote(name):
    record = records()[name]
    assert isinstance(record, Record) and "to_dict" not in type(record).__dict__
    items = list(record.to_dict().items())
    assert items == EXPECTED[name]
    assert shape(items) == shape(EXPECTED[name])


class Colour(enum.Enum):
    RED = "red"


@dataclass
class Sample(Record):
    name: str
    tags: tuple[tuple[int, ...], ...] = ()
    by_colour: dict[str, Colour] = field(default_factory=dict)
    inner: Diagnostic | None = None
    _cache: list[int] = field(default_factory=list)

    derived = ("size",)

    @property
    def size(self) -> int:
        return len(self.tags)


def test_the_rule():
    sample = Sample(
        "s", ((1, 2), (3,)), {"a": Colour.RED},
        Diagnostic("SEM001", Severity.ERROR, "no table"), [4],
    )
    assert list(sample.to_dict().items()) == [
        ("name", "s"),
        ("tags", [[1, 2], [3]]),
        ("by_colour", {"a": "red"}),
        ("inner", {"code": "SEM001", "severity": "error",
                   "message": "no table", "position": None}),
        ("size", 2),
    ]
    assert plain([Colour.RED, None, (sample.inner,)]) == [
        "red", None, [sample.inner.to_dict()]
    ]
