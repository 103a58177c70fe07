"""``repro-bench --verify-plans``: prove the compiled delta rules first.

Compiles the seed view catalog — a full-width mirror view, the selective
``active_parts`` view, a supplier join view and the ``qty_by_supplier``
aggregate — into maintenance plans, then:

* **certifies** every plan with the small-scope delta-rule verifier
  (:class:`~repro.analysis.verify.DeltaRuleVerifier`): each (view ×
  operation kind) is exhaustively model-checked over abstract
  micro-databases and the certificate records the scenario counts;
* proves the certificate cache is **pay-once**: a second certification
  pass over the identical catalog is served entirely from the cache and
  costs exactly zero virtual time on the verifier's metered clock;
* runs a captured seed workload through the plan-driven
  :class:`~repro.warehouse.opdelta_integrator.OpDeltaIntegrator` — whose
  mandatory pre-flight re-uses the same cached certificates — and checks
  **state parity**: every incrementally maintained view lands exactly on
  its oracle recomputation from the final mirror state.

``--fault corrupt-delta-rule`` plants a wrong SUM sign into the aggregate
retraction path (retraction *adds* the retracted quantity).  Success then
inverts — the drill exits 0 only when the verifier refutes the corrupted
plan with a concrete counterexample, the counterexample replays divergent,
*and* the integrator's pre-flight refuses to drive the view.  Everything
runs on the virtual clock, so the :class:`VerifyReport` JSON is
byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..analysis.verify import (
    CertificateCache,
    DeltaRuleVerifier,
    PlanCertificate,
)
from ..clock import VirtualClock
from ..core.capture import OpDeltaCapture
from ..core.selfmaint import JoinSpec, ViewDefinition
from ..core.stores import FileLogStore
from ..engine.schema import TableSchema
from ..errors import WarehouseError
from ..semantics import (
    PlanDrivenCapturePolicy,
    SchemaCatalog,
    ViewMaintenancePlanner,
)
from ..warehouse.aggregates import MaterializedAggregateView
from ..warehouse.opdelta_integrator import OpDeltaIntegrator
from ..warehouse.warehouse import Warehouse
from ..workloads.records import (
    PartsGenerator,
    parts_schema,
    strip_timestamp,
    suppliers_schema,
)
from .experiments.common import build_workload_database
from .experiments.semantics import AGG_VIEW, SPJ_VIEW, run_workload

#: Version of the ``--verify-plans --json`` document layout.  Bump on any
#: structural change to :meth:`VerifyReport.to_dict`.
SCHEMA_VERSION = 1

#: Injectable faults (``repro-bench --verify-plans --fault ...``).
FAULTS = ("corrupt-delta-rule",)

# Smoke-sized seed workload: the semantics experiment's two views (the
# selective ``active_parts``, hybrid under status flips, and the
# ``qty_by_supplier`` aggregate) and its mixed workload, at a smaller scale.
TABLE_ROWS = 300
TRANSACTIONS = 6
TXN_ROWS = 20

#: Full-width mirror view: every base column projected, no predicate —
#: the planner's purely SELF_MAINTAINABLE (OP_ONLY everywhere) case.
MIRROR_VIEW = ViewDefinition(
    name="parts_mirror_lite",
    base_table="parts",
    columns=tuple(parts_schema().column_names),
    predicate=None,
    key_column="part_id",
)

#: Join view projecting a dimension attribute: the paper's "joined tables
#: mirrored at the warehouse" hybrid case.
JOIN_VIEW = ViewDefinition(
    name="parts_with_supplier",
    base_table="parts",
    columns=("part_id", "status", "quantity", "supplier_id"),
    predicate=None,
    key_column="part_id",
    join=JoinSpec(
        "suppliers", "supplier_id", "supplier_id", columns=("supplier_name",)
    ),
)


@dataclass
class VerifyReport:
    """One verification pass over the seed plan catalog, as plain data."""

    fault: str | None = None
    #: View name -> certificate summary, in catalog order.
    plans: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: First pass vs cached second pass: the pay-once proof.
    cache: dict[str, Any] = field(default_factory=dict)
    #: Plan-driven apply behind the verifier pre-flight, plus parity.
    integration: dict[str, Any] = field(default_factory=dict)
    #: The seeded wrong-sign drill outcome (``--fault`` only).
    drill: dict[str, Any] | None = None

    @property
    def verdict(self) -> str:
        """``VERIFIED`` only when every seed plan certified clean."""
        verdicts = [plan["verdict"] for plan in self.plans.values()]
        verified = bool(verdicts) and all(v == "VERIFIED" for v in verdicts)
        return "VERIFIED" if verified else "REFUTED"

    @property
    def clean(self) -> bool:
        return (
            self.verdict == "VERIFIED"
            and bool(self.cache.get("pay_once"))
            and bool(self.integration.get("accepted"))
            and bool(self.integration.get("parity"))
        )

    @property
    def fault_detected(self) -> bool:
        """Did the verifier — and the integrator — catch the wrong sign?"""
        if self.drill is None:
            return False
        return (
            self.drill["verdict"] == "REFUTED"
            and bool(self.drill["counterexample"])
            and bool(self.drill["counterexample_replays"])
            and bool(self.drill["integrator_rejected"])
        )

    @property
    def exit_code(self) -> int:
        """0 = seed plans verified, or: seeded corruption fully caught."""
        if self.fault is not None:
            return 0 if self.fault_detected else 1
        return 0 if self.clean else 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "fault": self.fault,
            "verdict": self.verdict,
            "fault_detected": self.fault_detected if self.fault else None,
            "plans": self.plans,
            "cache": self.cache,
            "integration": self.integration,
            "drill": self.drill,
        }


def _catalog():
    """The seed plan catalog: (plans, definitions, schemas) mappings."""
    schemas = {"parts": parts_schema(), "suppliers": suppliers_schema()}
    catalog = SchemaCatalog(schemas.values())
    planner = ViewMaintenancePlanner(catalog)
    plans = planner.plan_catalog(
        [MIRROR_VIEW, SPJ_VIEW, JOIN_VIEW], [AGG_VIEW]
    )
    definitions: dict[str, Any] = {
        view.name: view for view in (MIRROR_VIEW, SPJ_VIEW, JOIN_VIEW)
    }
    definitions[AGG_VIEW.name] = AGG_VIEW
    return plans, definitions, schemas


def _plan_summary(plan, certificate: PlanCertificate) -> dict[str, Any]:
    return {
        "classification": plan.classification.value,
        "verdict": certificate.verdict,
        "stamp": certificate.stamp,
        "scenarios": certificate.scenarios,
        "scenarios_by_kind": dict(certificate.scenarios_by_kind),
        "databases": certificate.databases,
        "warnings": [
            finding.to_dict()
            for finding in certificate.findings
            if not finding.refutes
        ],
        "errors": [
            finding.to_dict()
            for finding in certificate.findings
            if finding.refutes
        ],
    }


def _norm_groups(groups: dict[tuple, dict[str, Any]]) -> dict[tuple, dict]:
    """Round float aggregates so running totals compare to recomputation.

    Incremental SUM/AVG maintenance accumulates in a different order than
    a fresh recompute; both are correct to ~1e-12 relative error, so the
    parity check compares at the verifier's 9-decimal precision.
    """
    return {
        key: {
            label: round(value, 9) if isinstance(value, float) else value
            for label, value in labels.items()
        }
        for key, labels in groups.items()
    }


def _build_warehouse(name: str, initial_rows: Sequence[tuple], clock):
    """A warehouse with parts + suppliers mirrors and all four views."""
    wh = Warehouse(name, clock=clock)
    wh.create_mirror(parts_schema())
    wh.create_mirror(suppliers_schema())
    wh.initial_load_rows("parts", initial_rows)
    wh.initial_load_rows("suppliers", PartsGenerator().supplier_rows())
    mirror = wh.define_view(MIRROR_VIEW, parts_schema())
    spj = wh.define_view(SPJ_VIEW, parts_schema())
    join = wh.define_view(JOIN_VIEW, parts_schema())
    agg = MaterializedAggregateView(wh.database, AGG_VIEW, parts_schema())
    txn = wh.database.begin()
    for view in (mirror, spj, join):
        view.initialize(initial_rows, txn)
    agg.initialize(initial_rows, txn)
    wh.database.commit(txn)
    return wh, (mirror, spj, join), agg


def _wrong_sum_sign_factory(database, definition, schema: TableSchema):
    """Aggregate factory with the planted fault: retraction *adds* SUMs."""

    class _WrongSumSignView(MaterializedAggregateView):
        _flip = False

        def _remove_row(self, row, txn):
            self._flip = True
            try:
                super()._remove_row(row, txn)
            finally:
                self._flip = False

        def _contribution(self, spec, row):
            value = super()._contribution(spec, row)
            if self._flip and spec.function == "SUM" and value is not None:
                return -value
            return value

    return _WrongSumSignView(database, definition, schema)


def _run_drill(plans, definitions) -> dict[str, Any]:
    """Certify the aggregate plan against the corrupted view runtime."""
    agg_plan = plans[AGG_VIEW.name]
    corrupted = DeltaRuleVerifier(
        cache=CertificateCache(), aggregate_factory=_wrong_sum_sign_factory
    )
    certificate = corrupted.certify_plan(agg_plan, AGG_VIEW, parts_schema())
    errors = [f for f in certificate.findings if f.refutes]
    example = errors[0] if errors and errors[0].counterexample else None
    replays = bool(
        example is not None
        and corrupted.replay(agg_plan, AGG_VIEW, parts_schema(), example)
    )

    # The integrator pre-flight must refuse to drive the corrupted view.
    source, _workload = build_workload_database(
        20, name="verify-drill-source"
    )
    initial_rows = list(source.table("parts").scan_values())
    wh = Warehouse("verify-drill-wh", clock=source.clock)
    wh.create_mirror(parts_schema())
    wh.initial_load_rows("parts", initial_rows)
    agg = _wrong_sum_sign_factory(wh.database, AGG_VIEW, parts_schema())
    txn = wh.database.begin()
    agg.initialize(initial_rows, txn)
    wh.database.commit(txn)
    rejected, error = False, ""
    try:
        OpDeltaIntegrator(
            wh.database.internal_session(),
            aggregate_views=[agg],
            plans={AGG_VIEW.name: agg_plan},
            verifier=corrupted,
        )
    except WarehouseError as exc:
        rejected = True
        error = str(exc).splitlines()[0]

    # Control: an uncorrupted verifier still certifies the same plan.
    control = DeltaRuleVerifier(cache=CertificateCache()).certify_plan(
        agg_plan, AGG_VIEW, parts_schema()
    )
    return {
        "planted": "corrupt-delta-rule",
        "view": AGG_VIEW.name,
        "verdict": certificate.verdict,
        "error_codes": sorted({f.code for f in errors}),
        "counterexample": example.render() if example is not None else None,
        "counterexample_replays": replays,
        "integrator_rejected": rejected,
        "integrator_error": error,
        "clean_verifier_verdict": control.verdict,
    }


def run_verify(fault: str | None = None) -> VerifyReport:
    """One full verification pass (optionally with the seeded fault)."""
    if fault is not None and fault not in FAULTS:
        raise ValueError(
            f"unknown fault {fault!r}; --verify-plans supports {FAULTS}"
        )
    report = VerifyReport(fault=fault)
    plans, definitions, schemas = _catalog()

    # Pass 1: certify the whole catalog on a metered private verifier.
    clock = VirtualClock()
    cache = CertificateCache()
    verifier = DeltaRuleVerifier(cache=cache, clock=clock)
    started = clock.now
    certificates = verifier.certify_catalog(plans, definitions, schemas)
    first_ms = clock.now - started
    for name, plan in plans.items():
        report.plans[name] = _plan_summary(plan, certificates[name])

    # Pass 2: identical catalog — every certificate must come from the
    # cache, at exactly zero virtual cost.  That is the pay-once claim.
    hits_before, started = cache.hits, clock.now
    recertified = verifier.certify_catalog(plans, definitions, schemas)
    second_ms = clock.now - started
    second_hits = cache.hits - hits_before
    identical = all(
        recertified[name] is certificates[name] for name in certificates
    )
    report.cache = {
        "plans": len(plans),
        "first_pass_virtual_ms": first_ms,
        "first_pass_misses": cache.misses,
        "second_pass_virtual_ms": second_ms,
        "second_pass_hits": second_hits,
        "identical_certificates": identical,
        "pay_once": (
            identical and second_ms == 0.0 and second_hits == len(plans)
        ),
    }

    # Capture a seed workload and drive it through the plan-driven
    # integrator; its pre-flight re-uses the verifier (and its cache).
    source, workload = build_workload_database(
        TABLE_ROWS, name="verify-source"
    )
    initial_rows = list(source.table("parts").scan_values())
    store = FileLogStore(source)
    capture = OpDeltaCapture(
        workload.session,
        store,
        tables={"parts"},
        hybrid_policy=PlanDrivenCapturePolicy(plans),
    )
    capture.attach()
    run_workload(workload, TRANSACTIONS, TXN_ROWS)
    capture.detach()
    groups = store.drain()

    wh, spj_views, agg = _build_warehouse(
        "verify-wh", initial_rows, source.clock
    )
    hits_before, preflight_start = cache.hits, clock.now
    integrator = OpDeltaIntegrator(
        wh.database.internal_session(),
        views=list(spj_views),
        aggregate_views=[agg],
        plans=plans,
        verifier=verifier,
    )
    preflight_ms = clock.now - preflight_start
    preflight_hits = cache.hits - hits_before
    apply_report = integrator.integrate(groups)

    mirror_rows = list(wh.database.table("parts").scan_values())
    final_rows = list(source.table("parts").scan_values())
    view_parity = all(
        view.rows() == view.recompute(mirror_rows) for view in spj_views
    )
    agg_parity = _norm_groups(agg.groups()) == _norm_groups(
        agg.recompute(mirror_rows)
    )
    mirror_parity = strip_timestamp(
        parts_schema(), mirror_rows
    ) == strip_timestamp(parts_schema(), final_rows)
    report.integration = {
        "accepted": True,
        "certificates": dict(apply_report.plan_certificates),
        "preflight_cache_hits": preflight_hits,
        "preflight_virtual_ms": preflight_ms,
        "transactions": apply_report.transactions,
        "plan_rules_applied": apply_report.plan_rules_applied,
        "apply_virtual_ms": apply_report.elapsed_ms,
        "view_parity": view_parity,
        "aggregate_parity": agg_parity,
        "mirror_parity": mirror_parity,
        "parity": view_parity and agg_parity and mirror_parity,
    }

    if fault is not None:
        report.drill = _run_drill(plans, definitions)
    return report
