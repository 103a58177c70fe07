"""Property tests tying verifier verdicts to concrete behaviour.

Two directions:

* **VERIFIED is sound**: when the verifier certifies a random SPJ view's
  plan, driving a random captured workload through the compiled rules
  lands bit-identically on the recomputation oracle (the PR-3 harness,
  now gated on the certificate instead of trusting the planner).
* **REFUTED is honest**: every refuting finding's counterexample, when
  re-executed concretely against the same (corrupted) view runtime,
  actually diverges or crashes — no spurious refutations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import CertificateCache, DeltaRuleVerifier
from repro.core import FileLogStore, OpDeltaCapture, ViewDefinition
from repro.engine import Database
from repro.semantics import (
    PlanDrivenCapturePolicy,
    SchemaCatalog,
    ViewMaintenancePlanner,
)
from repro.warehouse import (
    AggregateSpec,
    AggregateViewDefinition,
    MaterializedAggregateView,
    Warehouse,
)
from repro.warehouse.opdelta_integrator import OpDeltaIntegrator
from repro.warehouse.views import MaterializedView, contents
from repro.workloads import OltpWorkload, parts_schema

BASE = parts_schema().column_names

AGG_VIEW = AggregateViewDefinition(
    "qty_by_supplier",
    "parts",
    group_by=("supplier_id",),
    aggregates=(AggregateSpec("COUNT"), AggregateSpec("SUM", "quantity")),
)

#: One shared verifier: distinct definitions verify once, repeats hit
#: the certificate cache — the pay-once property keeps the suite fast.
VERIFIER = DeltaRuleVerifier(cache=CertificateCache())

_projections = st.sampled_from([
    ("part_id", "status", "quantity", "price"),
    ("part_id", "status"),
    ("part_id", "quantity"),
    BASE,
])
_predicates = st.sampled_from([
    None,
    "quantity > 500",
    "quantity <= 300",
    "price > 1000.0 AND quantity > 100",
])
_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "set_low", "set_high", "delete"]),
        st.integers(min_value=1, max_value=10),
    ),
    min_size=1,
    max_size=6,
)


@given(_projections, _predicates, _operations)
@settings(max_examples=25, deadline=None)
def test_verified_plan_apply_equals_recompute(
    projection, predicate, operations
):
    source = Database("prop-verify-src")
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(80)

    definition = ViewDefinition(
        "v", "parts", columns=projection, predicate=predicate,
        key_column="part_id",
    )
    catalog = SchemaCatalog.from_database(source)
    plans = ViewMaintenancePlanner(catalog).plan_catalog(
        [definition], [AGG_VIEW]
    )

    # The gate under test: both plans hold small-scope certificates.
    for name, view_definition in (("v", definition), (AGG_VIEW.name, AGG_VIEW)):
        certificate = VERIFIER.certify_plan(
            plans[name], view_definition, parts_schema()
        )
        assert certificate.verified, certificate.render()

    warehouse = Warehouse("prop-verify-wh", clock=source.clock)
    warehouse.create_mirror(parts_schema())
    view = warehouse.define_view(definition, parts_schema())
    agg = MaterializedAggregateView(
        warehouse.database, AGG_VIEW, parts_schema()
    )
    initial = [v for _r, v in source.table("parts").scan()]
    warehouse.initial_load_rows("parts", initial)
    txn = warehouse.database.begin()
    view.initialize(initial, txn)
    agg.initialize(initial, txn)
    warehouse.database.commit(txn)

    store = FileLogStore(source)
    OpDeltaCapture(
        workload.session, store, tables={"parts"},
        hybrid_policy=PlanDrivenCapturePolicy(plans),
    ).attach()

    for kind, size in operations:
        if kind == "insert":
            workload.run_insert(size)
        elif kind == "set_low":
            workload.run_update(size, assignment="quantity = 0")
        elif kind == "set_high":
            workload.run_update(size, assignment="quantity = 900")
        elif workload.live_rows > size:
            workload.run_delete(size, top_up=False)

    integrator = OpDeltaIntegrator(
        warehouse.database.internal_session(),
        views=[view],
        aggregate_views=[agg],
        plans=plans,
        verifier=VERIFIER,
    )
    report = integrator.integrate(store.drain())
    assert set(report.plan_certificates) == {"v", AGG_VIEW.name}

    tables = [(parts_schema(), list(source.table("parts").scan_values()))]
    expected = contents(definition, tables)

    def normalise(rows):
        if "last_modified" not in projection:
            return sorted(rows)
        position = projection.index("last_modified")
        return sorted(
            tuple(v for i, v in enumerate(row) if i != position) for row in rows
        )

    assert normalise(view.rows()) == normalise(expected)
    assert agg.groups() == contents(AGG_VIEW, tables)


def _wrong_sum_factory(database, definition, schema):
    class _Wrong(MaterializedAggregateView):
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

    return _Wrong(database, definition, schema)


def _dead_retraction_factory(database, definition, schema):
    class _Dead(MaterializedAggregateView):
        def _remove_row(self, row, txn):
            return None  # retraction silently dropped

    return _Dead(database, definition, schema)


def _always_qualifies_factory(database, definition, schema):
    class _Wide(MaterializedView):
        def _qualifies(self, row):
            return row is not None  # selection predicate ignored

    return _Wide(database, definition, schema)


_CORRUPTIONS = {
    "wrong-sum-sign": {"aggregate_factory": _wrong_sum_factory},
    "dead-retraction": {"aggregate_factory": _dead_retraction_factory},
    "always-qualifies": {"view_factory": _always_qualifies_factory},
}

_SPJ_UNDER_TEST = ViewDefinition(
    "v_sel",
    "parts",
    columns=("part_id", "status", "quantity"),
    predicate="quantity > 500",
    key_column="part_id",
)


@given(st.sampled_from(sorted(_CORRUPTIONS)))
@settings(max_examples=12, deadline=None)
def test_refuted_counterexamples_diverge_concretely(corruption):
    planner = ViewMaintenancePlanner(SchemaCatalog([parts_schema()]))
    if "aggregate_factory" in _CORRUPTIONS[corruption]:
        definition, plan = AGG_VIEW, planner.plan_aggregate(AGG_VIEW)
    else:
        definition = _SPJ_UNDER_TEST
        plan = planner.plan_view(definition)

    corrupted = DeltaRuleVerifier(
        cache=CertificateCache(), **_CORRUPTIONS[corruption]
    )
    certificate = corrupted.certify_plan(plan, definition, parts_schema())
    assert not certificate.verified, corruption

    refuting = [
        finding
        for finding in certificate.findings
        if finding.refutes and finding.counterexample is not None
    ]
    assert refuting, corruption
    for finding in refuting:
        assert corrupted.replay(plan, definition, parts_schema(), finding), (
            corruption,
            finding.render(),
        )
