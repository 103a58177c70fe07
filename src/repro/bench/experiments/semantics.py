"""Semantic checking + static maintenance planning, end to end.

The :mod:`repro.semantics` layer does two jobs at once and this experiment
exercises both on one captured workload:

* the **semantic checker** runs inside the capture hook, so a malformed
  statement (here: a seeded unknown-column UPDATE) is rejected at the
  wrapper — before execution, before it pollutes the Op-Delta log — while
  every legitimate workload statement passes untouched;
* the **view-maintenance planner** compiles the warehouse's SPJ and
  aggregate views into per-operation delta rules ahead of time.  The
  plan-driven integrator executes those rules; a second warehouse applies
  the same groups by rebuilding its views from the mirror after every
  transaction (recompute-on-apply).  Both must land on the state a full
  recomputation from the final source produces; the virtual-time ratio is
  the window the static plan saves.
"""

from __future__ import annotations

from ...core.capture import OpDeltaCapture
from ...core.selfmaint import ViewDefinition
from ...core.stores import FileLogStore
from ...errors import SemanticError
from ...semantics import (
    PlanDrivenCapturePolicy,
    SchemaCatalog,
    SemanticChecker,
    UNKNOWN_COLUMN,
    ViewMaintenancePlanner,
)
from ...warehouse.aggregates import (
    AggregateSpec,
    AggregateViewDefinition,
    MaterializedAggregateView,
)
from ...warehouse.opdelta_integrator import OpDeltaIntegrator
from ...warehouse.views import contents
from ...warehouse.warehouse import Warehouse
from ...workloads.records import parts_schema
from ..report import ExperimentResult
from .common import build_workload_database

DEFAULT_TABLE_ROWS = 2_000
DEFAULT_TRANSACTIONS = 9
DEFAULT_TXN_ROWS = 40

SPJ_VIEW = ViewDefinition(
    name="active_parts",
    base_table="parts",
    columns=("part_id", "part_no", "status", "quantity", "price"),
    predicate="status = 'active'",
    key_column="part_id",
)

AGG_VIEW = AggregateViewDefinition(
    "qty_by_supplier",
    "parts",
    group_by=("supplier_id",),
    aggregates=(
        AggregateSpec("COUNT"),
        AggregateSpec("SUM", "quantity"),
        AggregateSpec("AVG", "price"),
    ),
)


def _build_warehouse(name: str, initial_rows, clock):
    """A warehouse with a parts mirror, the SPJ view and the aggregate view."""
    wh = Warehouse(name, clock=clock)
    wh.create_mirror(parts_schema())
    wh.initial_load_rows("parts", initial_rows)
    spj = wh.define_view(SPJ_VIEW, parts_schema())
    agg = MaterializedAggregateView(wh.database, AGG_VIEW, parts_schema())
    txn = wh.database.begin()
    spj.initialize(initial_rows, txn)
    agg.initialize(initial_rows, txn)
    wh.database.commit(txn)
    return wh, spj, agg


def run_workload(workload, transactions: int, txn_rows: int) -> None:
    """Quantity bumps (aggregate inputs), status flips (view membership
    transitions), range deletes, and fresh inserts."""
    session = workload.session
    for i in range(transactions):
        low, high = i * txn_rows, (i + 1) * txn_rows
        if i % 3 == 0:
            session.execute(
                f"UPDATE parts SET quantity = quantity + 5 "
                f"WHERE part_ref >= {low} AND part_ref < {high}"
            )
        elif i % 3 == 1:
            session.execute(
                f"UPDATE parts SET status = 'retired' "
                f"WHERE part_ref >= {low} AND part_ref < {high}"
            )
        else:
            session.execute(
                f"DELETE FROM parts WHERE part_ref >= {low} "
                f"AND part_ref < {high}"
            )
    workload.run_insert(txn_rows)


def run(
    table_rows: int = DEFAULT_TABLE_ROWS,
    transactions: int = DEFAULT_TRANSACTIONS,
    txn_rows: int = DEFAULT_TXN_ROWS,
) -> ExperimentResult:
    source, workload = build_workload_database(table_rows, name="sem-source")
    initial_rows = list(source.table("parts").scan_values())

    # Static front matter: catalog, checker, plans, capture policy.
    catalog = SchemaCatalog.from_database(source)
    checker = SemanticChecker(catalog)
    plans = ViewMaintenancePlanner(catalog).plan_catalog([SPJ_VIEW], [AGG_VIEW])
    policy = PlanDrivenCapturePolicy(plans)

    store = FileLogStore(source)
    capture = OpDeltaCapture(
        workload.session,
        store,
        tables={"parts"},
        hybrid_policy=policy,
        checker=checker,
    )
    capture.attach()

    run_workload(workload, transactions, txn_rows)

    # The seeded malformed statement: the checker rejects it inside the
    # capture hook, so it neither executes nor reaches the Op-Delta log.
    rejection: SemanticError | None = None
    try:
        workload.session.execute(
            "UPDATE parts SET quantty = 0 "
            "WHERE part_ref >= 0 AND part_ref < 5"
        )
    except SemanticError as exc:
        rejection = exc
    capture.detach()
    groups = store.drain()

    # Arm 1: plan-driven incremental apply.
    wh_plan, spj_plan, agg_plan = _build_warehouse(
        "sem-wh-plan", initial_rows, source.clock
    )
    integrator = OpDeltaIntegrator(
        wh_plan.database.internal_session(),
        views=[spj_plan],
        aggregate_views=[agg_plan],
        plans=plans,
    )
    with source.clock.stopwatch() as plan_watch:
        plan_report = integrator.integrate(groups)
    plan_ms = plan_watch.elapsed

    # Arm 2: recompute-on-apply — mirror maintenance plus a full view
    # rebuild from the mirror after every transaction group.
    wh_rec, spj_rec, agg_rec = _build_warehouse(
        "sem-wh-recompute", initial_rows, source.clock
    )
    rec_integrator = OpDeltaIntegrator(wh_rec.database.internal_session())
    with source.clock.stopwatch() as rec_watch:
        for group in groups:
            rec_integrator.integrate([group])
            mirror_rows = list(wh_rec.database.table("parts").scan_values())
            spj_rec.table.truncate()
            agg_rec.table.truncate()
            agg_rec._rebuild_directory()
            txn = wh_rec.database.begin()
            spj_rec.initialize(mirror_rows, txn)
            agg_rec.initialize(mirror_rows, txn)
            wh_rec.database.commit(txn)
    recompute_ms = rec_watch.elapsed

    # Oracle: both views' SELECTs run over the final source state.
    final_rows = list(source.table("parts").scan_values())
    tables = [(parts_schema(), final_rows)]
    expected_spj = contents(SPJ_VIEW, tables)
    expected_groups = set(contents(AGG_VIEW, tables))
    speedup = recompute_ms / plan_ms if plan_ms else float("inf")

    result = ExperimentResult(
        experiment_id="semantics",
        title="Semantic checking + plan-driven view maintenance",
        parameters={
            "table_rows": table_rows,
            "transactions": len(groups),
            "txn_rows": txn_rows,
            "plan_classes": {
                name: plan.classification.value for name, plan in plans.items()
            },
        },
        headers=["plan-driven", "recompute-on-apply"],
        series={
            "apply_span_ms": [plan_ms, recompute_ms],
            "statements_issued": [
                plan_report.statements_issued,
                len(groups),
            ],
        },
        unit="generic",
    )
    result.check(
        "planner keeps both views off the source-query path",
        all(plan.self_maintainable for plan in plans.values()),
    )
    result.check(
        "plan-driven SPJ apply reproduces the recompute oracle",
        spj_plan.rows() == expected_spj,
    )
    result.check(
        "plan-driven aggregate apply reproduces the recompute oracle",
        set(agg_plan.groups()) == expected_groups,
    )
    result.check(
        "both arms agree on the final view states",
        spj_plan.rows() == spj_rec.rows()
        and set(agg_plan.groups()) == set(agg_rec.groups()),
    )
    result.check(
        "seeded unknown-column statement is rejected at capture, with "
        "a position",
        rejection is not None
        and any(
            d.code == UNKNOWN_COLUMN and d.position is not None
            for d in rejection.diagnostics
        ),
    )
    result.check(
        "no false positives: only the seeded statement is rejected",
        capture.statements_rejected == 1
        and capture.operations_captured == transactions + 1,
    )
    result.check(
        "plan-driven apply shortens the window (virtual time, >=2x)",
        speedup >= 2.0,
    )
    result.notes.append(
        f"Plan classes: "
        + ", ".join(
            f"{name}={plan.classification.value}"
            for name, plan in sorted(plans.items())
        )
        + f"; speedup {speedup:.1f}x over recompute-on-apply."
    )
    return result
