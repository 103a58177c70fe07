"""§4.1 in-text — online maintenance vs warehouse outage.

"Op-Delta captures the original transaction context and hence can
interleave with OLAP queries ... value delta methods lose the transaction
context at the sources and need to be applied as an indivisible batch."

Pipeline: a run of source transactions is captured both ways and applied
to warehouse mirrors to *measure* integration service times; a
discrete-event simulation then replays those service times against a
concurrent OLAP query stream:

* value delta — the batch accumulates and applies under one exclusive
  lock (the outage window);
* Op-Delta — each source transaction applies under its own short lock as
  it arrives (paced by ``unit_gap``), interleaving with queries.

Availability is operational: the fraction of OLAP queries answered within
an SLA of 10x their unloaded latency.
"""

from __future__ import annotations

from ...core.capture import OpDeltaCapture
from ...core.stores import FileLogStore
from ...extraction.trigger import TriggerExtractor
from ...warehouse.olap import measure_mix_cost, standard_queries
from ...warehouse.opdelta_integrator import OpDeltaIntegrator
from ...warehouse.scheduler import run_availability_experiment
from ...warehouse.value_integrator import ValueDeltaIntegrator
from ...warehouse.warehouse import Warehouse
from ...workloads.records import parts_schema
from ..report import ExperimentResult, mean
from .common import build_workload_database

DEFAULT_TABLE_ROWS = 20_000
DEFAULT_TRANSACTIONS = 60
DEFAULT_TXN_ROWS = 15
SLA_FACTOR = 10.0


def run(
    table_rows: int = DEFAULT_TABLE_ROWS,
    transactions: int = DEFAULT_TRANSACTIONS,
    txn_rows: int = DEFAULT_TXN_ROWS,
) -> ExperimentResult:
    source, workload = build_workload_database(table_rows, name="ol-source")
    store = FileLogStore(source)
    capture = OpDeltaCapture(workload.session, store, tables={"parts"})
    capture.attach()
    triggers = TriggerExtractor(source, "parts")
    triggers.install()

    wh_value = Warehouse("wh-value", clock=source.clock)
    wh_op = Warehouse("wh-op", clock=source.clock)
    initial_rows = list(source.table("parts").scan_values())
    for wh in (wh_value, wh_op):
        wh.create_mirror(parts_schema())
        wh.initial_load_rows("parts", initial_rows)
        wh.database.table("parts").create_index("idx_part_ref", "part_ref")

    # The maintenance backlog: a run of small update transactions.
    batches = []
    groups = []
    for i in range(transactions):
        workload.run_update(txn_rows, assignment=f"quantity = quantity + {i + 1}")
        batches.append(triggers.drain_to_batch())
        groups.extend(store.drain())
    capture.detach()
    triggers.uninstall()

    # Measure integration service times on the real warehouses.
    value_integrator = ValueDeltaIntegrator(wh_value.database.internal_session())
    value_report = value_integrator.integrate_many(batches)
    op_integrator = OpDeltaIntegrator(wh_op.database.internal_session())
    op_report = op_integrator.integrate(groups)

    # Measure OLAP query cost on the maintained warehouse.
    queries = standard_queries(
        "parts", measure_column="price", group_column="supplier_id",
        filter_column="status", filter_value="revised",
    )
    olap_session = wh_op.database.internal_session()
    query_cost = mean(
        list(measure_mix_cost(wh_op.database, olap_session, queries).values())
    )
    interarrival = query_cost * 4.0
    sla_ms = query_cost * SLA_FACTOR

    # Op-Deltas arrive as source transactions commit; pace them so the
    # integrator is busy ~25% of the time (the paper's trickle-feed).
    unit_gap = 3.0 * mean(op_report.per_transaction_ms)
    op_span = sum(op_report.per_transaction_ms) + unit_gap * (transactions - 1)
    horizon = max(value_report.elapsed_ms, op_span) * 1.3

    batch_sim = run_availability_experiment(
        [value_report.elapsed_ms], query_cost, interarrival, mode="batch",
        maintenance_start_ms=query_cost * 5, horizon_ms=horizon,
    )
    online_sim = run_availability_experiment(
        op_report.per_transaction_ms, query_cost, interarrival,
        mode="interleaved", maintenance_start_ms=query_cost * 5,
        horizon_ms=horizon, unit_gap_ms=unit_gap,
    )

    result = ExperimentResult(
        experiment_id="online_maintenance",
        title="Warehouse availability during maintenance",
        parameters={
            "table_rows": table_rows,
            "transactions": transactions,
            "txn_rows": txn_rows,
            "query_cost_ms": round(query_cost, 1),
            "sla_ms": round(sla_ms, 1),
        },
        headers=["value-delta batch", "op-delta interleaved"],
        series={
            "maintenance_busy_ms": [
                value_report.elapsed_ms,
                sum(op_report.per_transaction_ms),
            ],
            "queries_within_sla": [
                batch_sim.fraction_within(sla_ms),
                online_sim.fraction_within(sla_ms),
            ],
            "mean_query_wait_ms": [batch_sim.mean_wait_ms, online_sim.mean_wait_ms],
            "max_query_wait_ms": [batch_sim.max_wait_ms, online_sim.max_wait_ms],
        },
        unit="generic",
    )
    result.check(
        "op-delta keeps >=90% of queries within SLA (no outage)",
        online_sim.fraction_within(sla_ms) >= 0.90,
    )
    result.check(
        "value-delta batch is an outage (<60% of queries within SLA)",
        batch_sim.fraction_within(sla_ms) <= 0.60,
    )
    result.check(
        "worst query wait under op-delta bounded by ~one txn's work",
        online_sim.max_wait_ms
        <= 3.0 * max(op_report.per_transaction_ms) + query_cost,
    )
    result.check(
        "worst query wait under value delta ~ the whole batch window",
        batch_sim.max_wait_ms >= 0.5 * value_report.elapsed_ms,
    )
    result.check(
        "op-delta also shrinks the total maintenance work (updates)",
        sum(op_report.per_transaction_ms) < value_report.elapsed_ms,
    )
    result.notes.append(
        "SLA = 10x the unloaded OLAP latency; integration and query "
        "service times are measured on real engine runs and replayed by "
        "the DES with a concurrent query stream."
    )
    return result
