"""§4.1 in-text — warehouse maintenance window, Op-Delta vs value delta.

"For deletions, the data warehouse maintenance window using Op-Delta is on
average 31.8% shorter than that of using value delta ... For updates ...
on average 69.7% shorter ... the response time of maintaining insertion by
Op-Delta and value delta is the same."

Setup: one source PARTS table; for each operation kind and transaction
size, the same source transaction is captured **both** ways — as an
Op-Delta (wrapper hook) and as value deltas (row triggers) — and applied
to two independent warehouse mirrors.  The maintenance window is the
virtual time each integrator needs for that transaction.
"""

from __future__ import annotations

from ...core.capture import OpDeltaCapture
from ...core.stores import FileLogStore
from ...extraction.trigger import TriggerExtractor
from ...warehouse.opdelta_integrator import OpDeltaIntegrator
from ...warehouse.value_integrator import ValueDeltaIntegrator
from ...warehouse.warehouse import Warehouse
from ...workloads.oltp import PAPER_TXN_SIZES
from ...workloads.records import parts_schema, strip_timestamp
from ..paper_data import MAINTENANCE_WINDOW_REDUCTION
from ..report import ExperimentResult, mean
from .common import build_workload_database

DEFAULT_TABLE_ROWS = 100_000


def run(
    table_rows: int = DEFAULT_TABLE_ROWS,
    sizes: tuple[int, ...] = PAPER_TXN_SIZES,
) -> ExperimentResult:
    source, workload = build_workload_database(table_rows, name="mw-source")

    # Capture both representations of every source transaction.
    store = FileLogStore(source)
    capture = OpDeltaCapture(workload.session, store, tables={"parts"})
    capture.attach()
    triggers = TriggerExtractor(source, "parts")
    triggers.install()

    # Two warehouses mirroring the source, one per integration path.
    wh_value = Warehouse("wh-value", clock=source.clock)
    wh_op = Warehouse("wh-op", clock=source.clock)
    initial_rows = list(source.table("parts").scan_values())
    for wh in (wh_value, wh_op):
        wh.create_mirror(parts_schema())
        wh.initial_load_rows("parts", initial_rows)
        # Warehouses are indexed for query performance; the DW optimizer
        # uses this index for selective replayed predicates and falls back
        # to scans for large deltas, exactly like a real DSS schema.
        wh.database.table("parts").create_index("idx_part_ref", "part_ref")
    value_integrator = ValueDeltaIntegrator(wh_value.database.internal_session())
    op_integrator = OpDeltaIntegrator(wh_op.database.internal_session())

    reductions: dict[str, list[float]] = {}
    windows: dict[str, dict[str, list[float]]] = {"value": {}, "op": {}}
    for op_name in ("insert", "delete", "update"):
        value_ms, op_ms = [], []
        for size in sizes:
            if op_name == "insert":
                workload.run_insert(size)
            elif op_name == "delete":
                workload.run_delete(size, top_up=False)
            else:
                workload.run_update(size)
            batch = triggers.drain_to_batch()
            groups = store.drain()
            assert len(batch) == size and len(groups) == 1

            report = value_integrator.integrate(batch)
            value_ms.append(report.elapsed_ms)
            report = op_integrator.integrate(groups)
            op_ms.append(report.elapsed_ms)
        windows["value"][op_name] = value_ms
        windows["op"][op_name] = op_ms
        reductions[op_name] = [1.0 - o / v for o, v in zip(op_ms, value_ms)]

    capture.detach()
    triggers.uninstall()

    result = ExperimentResult(
        experiment_id="maintenance_window",
        title="Warehouse maintenance window: Op-Delta vs value delta",
        parameters={"table_rows": table_rows},
        headers=[str(s) for s in sizes] + ["avg"],
        series={
            **{
                f"{op}_window_reduction": reductions[op] + [mean(reductions[op])]
                for op in ("insert", "delete", "update")
            },
        },
        paper={
            f"{op}_window_reduction": [float("nan")] * len(sizes)
            + [MAINTENANCE_WINDOW_REDUCTION[op]]
            for op in ("insert", "delete", "update")
        },
        unit="percent",
    )
    result.check(
        "insert windows equal within 5% (paper: the same)",
        abs(mean(reductions["insert"])) <= 0.05,
    )
    result.check(
        "delete window ~32% shorter (20-45% band)",
        0.20 <= mean(reductions["delete"]) <= 0.45,
    )
    result.check(
        "update window ~70% shorter (55-85% band)",
        0.55 <= mean(reductions["update"]) <= 0.85,
    )
    schema = parts_schema()
    result.check(
        "warehouses converge to the same logical mirror state",
        strip_timestamp(
            schema, wh_value.database.table("parts").scan_values()
        )
        == strip_timestamp(
            schema, wh_op.database.table("parts").scan_values()
        ),
    )
    result.notes.append(
        "Value delta: x delete + x insert statements per x-row update; "
        "Op-Delta: one statement.  Both paths applied the identical source "
        "transactions; the final mirror-equality check proves it."
    )
    return result
