"""Property-based tests: plan-driven maintenance equals recomputation.

Random workloads against random SPJ view definitions: when the static
planner classifies a view self-maintainable, executing its compiled delta
rules (plan-driven capture policy + plan-driven integrator) must always
land on the state a full recompute from the base table produces.  A fixed
aggregate view rides along on every example.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.warehouse.views import contents
from repro.workloads import OltpWorkload, parts_schema

BASE = parts_schema().column_names

AGG_VIEW = AggregateViewDefinition(
    "qty_by_supplier",
    "parts",
    group_by=("supplier_id",),
    aggregates=(AggregateSpec("COUNT"), AggregateSpec("SUM", "quantity")),
)

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
@settings(max_examples=30, deadline=None)
def test_plan_driven_apply_equals_recompute(projection, predicate, operations):
    source = Database("prop-sem-src")
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
    assert all(plan.self_maintainable for plan in plans.values())

    warehouse = Warehouse("prop-sem-wh", clock=source.clock)
    warehouse.create_mirror(parts_schema())
    view = warehouse.define_view(definition, parts_schema())
    agg = MaterializedAggregateView(warehouse.database, AGG_VIEW, parts_schema())
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
    )
    integrator.integrate(store.drain())

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
