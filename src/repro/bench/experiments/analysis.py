"""Static-analysis experiment: safety, pruning and conflict-aware apply.

A mixed OLTP run is captured as Op-Deltas with the static analyzer
attached, then integrated three ways:

* **serial** — capture order, the baseline integrator;
* **reordered** — the conflict graph's components interleaved
  (:func:`repro.analysis.parallel_order`); equality of the resulting
  mirror states is the dynamic validation of the commutativity analysis;
* **scheduled** — the measured per-transaction apply times replayed on
  parallel worker lanes (:func:`repro.warehouse.run_conflict_schedule`),
  giving the virtual-time speedup a conflict-aware warehouse gains.

Along the way the analyzer prunes the ``audit_log`` transactions (no view
or mirror observes that table) and pins the one ``NOW()`` statement to its
capture timestamp so it replays deterministically.
"""

from __future__ import annotations

from ...analysis import OpDeltaAnalyzer, parallel_order
from ...core.capture import OpDeltaCapture
from ...core.selfmaint import ViewDefinition
from ...core.stores import FileLogStore
from ...engine.schema import Column, TableSchema
from ...engine.types import INTEGER, char
from ...warehouse.opdelta_integrator import OpDeltaIntegrator
from ...warehouse.scheduler import run_conflict_schedule
from ...warehouse.warehouse import Warehouse
from ...workloads.records import parts_schema, strip_timestamp
from ..report import ExperimentResult
from .common import build_workload_database

DEFAULT_TABLE_ROWS = 4_000
TRANSACTIONS = 12
TXN_ROWS = 20
WORKERS = 4


def audit_log_schema() -> TableSchema:
    """A side table only the source cares about (never shipped)."""
    return TableSchema(
        "audit_log",
        [
            Column("event_id", INTEGER, nullable=False),
            Column("part_id", INTEGER, nullable=False),
            Column("note", char(20)),
        ],
        primary_key="event_id",
    )


def build_analyzer() -> OpDeltaAnalyzer:
    """The warehouse-interest description shared by capture and apply."""
    schema = parts_schema()
    view = ViewDefinition(
        name="active_parts",
        base_table="parts",
        columns=("part_id", "part_no", "status", "quantity", "price"),
        predicate="status = 'active'",
        key_column="part_id",
        base_columns=schema.column_names,
    )
    return OpDeltaAnalyzer(
        views=[view],
        mirrored_tables={"parts"},
        key_columns={"parts": "part_id", "audit_log": "event_id"},
        table_columns={
            "parts": schema.column_names,
            "audit_log": audit_log_schema().column_names,
        },
    )


def run(table_rows: int = DEFAULT_TABLE_ROWS) -> ExperimentResult:
    source, workload = build_workload_database(table_rows, name="an-source")
    source.create_table(audit_log_schema())
    analyzer = build_analyzer()
    store = FileLogStore(source)
    capture = OpDeltaCapture(
        workload.session,
        store,
        tables={"parts", "audit_log"},
        analyzer=analyzer,
    )
    capture.attach()

    # The workload: disjoint-range status updates (these pairwise commute),
    # a couple of overlapping-range conflicts, audit-log noise and one
    # time-dependent repricing.
    session = workload.session
    audit_ops = 0
    for i in range(TRANSACTIONS):
        low, high = i * TXN_ROWS, (i + 1) * TXN_ROWS
        session.execute(
            f"UPDATE parts SET status = 'revised' "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        if i % 3 == 0:
            session.execute(
                f"INSERT INTO audit_log (event_id, part_id, note) "
                f"VALUES ({i}, {i * TXN_ROWS}, 'batch update')"
            )
            audit_ops += 1
    # Two genuinely conflicting updates: overlapping part_ref ranges, both
    # assigning status to different values — order matters.
    overlap_low = TRANSACTIONS * TXN_ROWS
    session.execute(
        f"UPDATE parts SET status = 'active' "
        f"WHERE part_ref >= {overlap_low} AND part_ref < {overlap_low + 30}"
    )
    session.execute(
        f"UPDATE parts SET status = 'retired' "
        f"WHERE part_ref >= {overlap_low + 15} AND part_ref < {overlap_low + 45}"
    )
    # One pinnable statement: NOW() is rewritten to the capture timestamp
    # at apply time, so it lands in its own conflict component.
    pinned_low = overlap_low + 50
    session.execute(
        f"UPDATE parts SET price = NOW() "
        f"WHERE part_ref >= {pinned_low} AND part_ref < {pinned_low + 10}"
    )
    capture.detach()
    groups = store.drain()

    graph = analyzer.conflict_graph(groups)

    # Two warehouses, identically loaded; one integrates in capture order,
    # the other in the conflict-graph interleaving.
    initial_rows = list(source.table("parts").scan_values())
    warehouses = []
    for label in ("serial", "reordered"):
        wh = Warehouse(f"an-wh-{label}", clock=source.clock)
        wh.create_mirror(parts_schema())
        wh.initial_load_rows("parts", initial_rows)
        warehouses.append(wh)
    wh_serial, wh_reordered = warehouses

    serial_report = OpDeltaIntegrator(
        wh_serial.database.internal_session(), analyzer=analyzer
    ).integrate(groups)
    reordered_report = OpDeltaIntegrator(
        wh_reordered.database.internal_session(), analyzer=analyzer
    ).integrate(parallel_order(groups, graph))

    schema = parts_schema()
    state_serial = strip_timestamp(
        schema, list(wh_serial.database.table("parts").scan_values())
    )
    state_reordered = strip_timestamp(
        schema, list(wh_reordered.database.table("parts").scan_values())
    )

    # Replay the measured apply times on parallel worker lanes.
    duration_of = {
        group.txn_id: ms
        for group, ms in zip(groups, serial_report.per_transaction_ms)
    }
    component_durations = [
        [duration_of[txn_id] for txn_id in component]
        for component in graph.components
    ]
    schedule = run_conflict_schedule(component_durations, workers=WORKERS)

    result = ExperimentResult(
        experiment_id="analysis",
        title="Static analysis: pruning, pinning, conflict-aware apply",
        parameters={
            "table_rows": table_rows,
            "transactions": len(groups),
            "txn_rows": TXN_ROWS,
            "workers": WORKERS,
            "conflict_edges": len(graph.edges),
        },
        headers=["serial", "conflict-aware"],
        series={
            "apply_span_ms": [schedule.serial_ms, schedule.parallel_ms],
            "components": [len(groups), graph.component_count],
            "statements_pruned": [
                serial_report.statements_pruned,
                reordered_report.statements_pruned,
            ],
            "statements_pinned": [
                serial_report.statements_pinned,
                reordered_report.statements_pinned,
            ],
        },
        unit="generic",
    )
    result.check(
        "reordered application reproduces the serial warehouse state",
        state_serial == state_reordered,
    )
    result.check(
        "audit_log statements are pruned before they reach the mirror",
        serial_report.statements_pruned == audit_ops and audit_ops > 0,
    )
    result.check(
        "the NOW() statement is pinned, not rejected",
        serial_report.statements_pinned == 1,
    )
    result.check(
        "conflict graph splits the batch into multiple components",
        1 < graph.component_count < len(groups),
    )
    result.check(
        "the two overlapping updates land in one component",
        graph.largest_component >= 2,
    )
    result.check(
        "conflict-aware schedule shortens the apply window (virtual time)",
        schedule.speedup >= 1.5,
    )
    result.notes.append(
        "Commutativity is validated dynamically: the conflict-graph "
        "interleaving is applied to a second warehouse and must reproduce "
        "the serial state bit-for-bit (timestamps excluded)."
    )
    result.notes.append(
        f"Schedule: {graph.component_count} components on {WORKERS} lanes, "
        f"speedup {schedule.speedup:.2f}x over serial."
    )
    return result
