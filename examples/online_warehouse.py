#!/usr/bin/env python3
"""Online warehouse maintenance: Op-Delta vs the value-delta outage (§4.1).

Captures one run of source transactions both ways, measures the real
integration costs on two warehouse mirrors, then simulates concurrent OLAP
queries against both maintenance styles and reports availability.

Also maintains a materialized SPJ view ("hot parts") through the hybrid
Op-Delta path to show self-maintainability in action.

Run:  python examples/online_warehouse.py
"""

from repro.clock import format_duration
from repro.core import FileLogStore, OpDeltaCapture, ViewDefinition
from repro.engine import Database
from repro.extraction import TriggerExtractor
from repro.semantics import (
    PlanDrivenCapturePolicy,
    SchemaCatalog,
    ViewMaintenancePlanner,
)
from repro.warehouse import (
    OpDeltaIntegrator,
    ValueDeltaIntegrator,
    Warehouse,
    run_availability_experiment,
    standard_queries,
)
from repro.warehouse.olap import measure_mix_cost
from repro.warehouse.views import contents
from repro.workloads import OltpWorkload, parts_schema

TABLE_ROWS = 20_000
TRANSACTIONS = 50
TXN_ROWS = 20

HOT_PARTS = ViewDefinition(
    "hot_parts", "parts",
    columns=("part_id", "part_no", "status", "quantity", "price"),
    predicate="quantity > 500", key_column="part_id",
    base_columns=parts_schema().column_names,
)


def main() -> None:
    source = Database("source")
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(TABLE_ROWS)

    plans = ViewMaintenancePlanner(SchemaCatalog([parts_schema()])).plan_catalog(
        [HOT_PARTS]
    )
    store = FileLogStore(source)
    OpDeltaCapture(
        workload.session, store, tables={"parts"},
        hybrid_policy=PlanDrivenCapturePolicy(plans),
    ).attach()
    triggers = TriggerExtractor(source, "parts")
    triggers.install()

    wh_value = Warehouse("wh-value", clock=source.clock)
    wh_op = Warehouse("wh-op", clock=source.clock)
    initial = [v for _r, v in source.table("parts").scan()]
    for wh in (wh_value, wh_op):
        wh.create_mirror(parts_schema())
        wh.initial_load_rows("parts", initial)
        wh.database.table("parts").create_index("idx_part_ref", "part_ref")
    view = wh_op.define_view(HOT_PARTS, parts_schema())
    txn = wh_op.database.begin()
    view.initialize(initial, txn)
    wh_op.database.commit(txn)
    print(f"warehouses loaded; hot_parts view: {view.table.num_rows} rows")

    # --- source activity, captured both ways -------------------------------
    batches, groups = [], []
    for i in range(TRANSACTIONS):
        workload.run_update(TXN_ROWS, assignment=f"quantity = quantity + {i % 7}")
        batches.append(triggers.drain_to_batch())
        groups.extend(store.drain())

    # --- integrate & measure ------------------------------------------------
    value_report = ValueDeltaIntegrator(
        wh_value.database.internal_session()
    ).integrate_many(batches)
    op_report = OpDeltaIntegrator(
        wh_op.database.internal_session(), views=[view]
    ).integrate(groups)
    print(f"\nmaintenance work for {TRANSACTIONS} transactions of "
          f"{TXN_ROWS} rows each:")
    print(f"  value delta (batch): {format_duration(value_report.elapsed_ms)} "
          f"({value_report.statements_issued} statements)")
    print(f"  op-delta (per txn):  "
          f"{format_duration(sum(op_report.per_transaction_ms))} "
          f"({op_report.statements_issued} statements)")

    expected = contents(
        HOT_PARTS, [(parts_schema(), source.table("parts").scan_values())]
    )
    assert view.rows() == expected
    print("  hot_parts view maintained incrementally — matches its SELECT")

    # --- concurrency: the availability experiment ---------------------------
    queries = standard_queries(
        "parts", measure_column="price", group_column="supplier_id",
        filter_column="status", filter_value="revised",
    )
    olap = wh_op.database.internal_session()
    query_cost = sum(
        measure_mix_cost(wh_op.database, olap, queries).values()
    ) / len(queries)
    sla = query_cost * 10
    gap = 3.0 * (sum(op_report.per_transaction_ms) / TRANSACTIONS)
    horizon = max(value_report.elapsed_ms,
                  sum(op_report.per_transaction_ms) + gap * TRANSACTIONS) * 1.3

    batch_sim = run_availability_experiment(
        [value_report.elapsed_ms], query_cost, query_cost * 4, mode="batch",
        horizon_ms=horizon,
    )
    online_sim = run_availability_experiment(
        op_report.per_transaction_ms, query_cost, query_cost * 4,
        mode="interleaved", unit_gap_ms=gap, horizon_ms=horizon,
    )
    print(f"\nconcurrent OLAP stream (query ~{format_duration(query_cost)}, "
          f"SLA {format_duration(sla)}):")
    for name, sim in (("value-delta batch", batch_sim),
                      ("op-delta online", online_sim)):
        print(
            f"  {name:<18} queries within SLA: "
            f"{sim.fraction_within(sla):6.1%}   worst wait: "
            f"{format_duration(sim.max_wait_ms)}"
        )
    print("\nthe value-delta batch is an outage; Op-Delta keeps the "
          "warehouse answering queries throughout maintenance.")


if __name__ == "__main__":
    main()
