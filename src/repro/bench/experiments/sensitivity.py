"""Cost-model sensitivity — do the paper's conclusions survive recalibration?

The virtual cost model was calibrated once against the paper's numbers.  A
fair question for any simulation-backed reproduction: *do the qualitative
conclusions depend on that calibration?*  This experiment perturbs the most
influential constants by ±50% and re-runs a compact version of the two
headline comparisons:

* Figure 3's capture-overhead ordering (Op-Delta update capture ≪ trigger
  capture);
* the §4.1 maintenance-window ordering (Op-Delta update integration ≪
  value-delta integration).

Both orderings must hold under every perturbation — they do, because they
follow from *structure* (constant-size statements vs per-row images;
one statement vs 2x statements), not from the constants' values.
"""

from __future__ import annotations

from ...core.capture import OpDeltaCapture
from ...core.stores import FileLogStore
from ...engine.costs import DEFAULT_COST_MODEL, CostModel
from ...engine.database import Database
from ...extraction.trigger import TriggerExtractor
from ...warehouse.opdelta_integrator import OpDeltaIntegrator
from ...warehouse.value_integrator import ValueDeltaIntegrator
from ...warehouse.warehouse import Warehouse
from ...workloads.oltp import OltpWorkload
from ...workloads.records import parts_schema
from ..report import ExperimentResult

DEFAULT_TABLE_ROWS = 5_000
DEFAULT_TXN_ROWS = 400

#: (label, constant overrides) — each perturbs one influential constant.
PERTURBATIONS: tuple[tuple[str, dict[str, float]], ...] = (
    ("calibrated", {}),
    ("stmt_overhead x2", {"stmt_overhead": DEFAULT_COST_MODEL.stmt_overhead * 2}),
    ("stmt_overhead /2", {"stmt_overhead": DEFAULT_COST_MODEL.stmt_overhead / 2}),
    ("row_insert x2", {"row_insert_cpu": DEFAULT_COST_MODEL.row_insert_cpu * 2}),
    ("log_force x4", {"log_force": DEFAULT_COST_MODEL.log_force * 4}),
    ("slow disk x3", {
        "page_read_miss": DEFAULT_COST_MODEL.page_read_miss * 3,
        "page_write": DEFAULT_COST_MODEL.page_write * 3,
    }),
)


def _one_model(costs: CostModel, table_rows: int, txn_rows: int) -> dict[str, float]:
    source = Database("sens-src", costs=costs)
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(table_rows)
    source.checkpoint()

    base_ms = workload.run_update(txn_rows).response_ms

    store = FileLogStore(source)
    OpDeltaCapture(workload.session, store, tables={"parts"}).attach()
    opdelta_capture_ms = workload.run_update(txn_rows).response_ms
    groups = store.drain()

    triggers = TriggerExtractor(source, "parts")
    triggers.install()
    trigger_capture_ms = workload.run_update(txn_rows).response_ms
    batch = triggers.drain_to_batch()
    triggers.uninstall()

    initial = list(source.table("parts").scan_values())
    wh_value = Warehouse("sens-value", clock=source.clock, costs=costs)
    wh_op = Warehouse("sens-op", clock=source.clock, costs=costs)
    for wh in (wh_value, wh_op):
        wh.create_mirror(parts_schema())
        wh.initial_load_rows("parts", initial)
    value_ms = ValueDeltaIntegrator(
        wh_value.database.internal_session()
    ).integrate(batch).elapsed_ms
    op_ms = OpDeltaIntegrator(
        wh_op.database.internal_session()
    ).integrate(groups).elapsed_ms
    return {
        "opdelta_capture_overhead": opdelta_capture_ms / base_ms - 1.0,
        "trigger_capture_overhead": trigger_capture_ms / base_ms - 1.0,
        "update_window_reduction": 1.0 - op_ms / value_ms,
    }


def run(
    table_rows: int = DEFAULT_TABLE_ROWS,
    txn_rows: int = DEFAULT_TXN_ROWS,
) -> ExperimentResult:
    outcomes = {}
    for label, overrides in PERTURBATIONS:
        costs = DEFAULT_COST_MODEL.scaled(**overrides) if overrides else DEFAULT_COST_MODEL
        outcomes[label] = _one_model(costs, table_rows, txn_rows)

    labels = [label for label, _o in PERTURBATIONS]
    result = ExperimentResult(
        experiment_id="sensitivity",
        title="Cost-model sensitivity of the headline conclusions",
        parameters={"table_rows": table_rows, "txn_rows": txn_rows},
        headers=labels,
        series={
            "opdelta_capture_overhead": [
                outcomes[label]["opdelta_capture_overhead"] for label in labels
            ],
            "trigger_capture_overhead": [
                outcomes[label]["trigger_capture_overhead"] for label in labels
            ],
            "update_window_reduction": [
                outcomes[label]["update_window_reduction"] for label in labels
            ],
        },
        unit="percent",
    )
    result.check(
        "op-delta capture beats trigger capture under every perturbation",
        all(
            outcomes[label]["opdelta_capture_overhead"]
            < outcomes[label]["trigger_capture_overhead"] / 5
            for label in labels
        ),
    )
    result.check(
        "op-delta integration window shorter under every perturbation",
        all(outcomes[label]["update_window_reduction"] > 0.3 for label in labels),
    )
    result.check(
        "trigger overhead stays in a plausible multi-x regime everywhere",
        all(
            0.5 < outcomes[label]["trigger_capture_overhead"] < 8.0
            for label in labels
        ),
    )
    result.notes.append(
        "The orderings are structural (statement-size independence; one "
        "statement vs 2x statements), so recalibrating the constants moves "
        "magnitudes, never the conclusions."
    )
    return result
