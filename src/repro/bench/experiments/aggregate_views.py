"""Aggregate-view maintenance ablation (the paper's [19] connection).

§1 cites *Shrinking the Warehouse Update Window* for aggregate-view
maintenance.  This ablation compares, across churn fractions, two ways to
refresh a ``GROUP BY supplier_id`` aggregate view:

* **incremental** — apply the captured deltas (subtract before / add
  after contributions per group);
* **recompute** — rebuild the view from a fresh full extract.

Incremental maintenance wins while the churn is a small fraction of the
table and loses its edge as churn approaches 100% — the classic crossover
that motivates delta-driven maintenance in the first place.
"""

from __future__ import annotations

from ...extraction.trigger import TriggerExtractor
from ...warehouse.aggregates import (
    AggregateSpec,
    AggregateViewDefinition,
    MaterializedAggregateView,
)
from ...warehouse.warehouse import Warehouse
from ...workloads.records import parts_schema
from ..report import ExperimentResult
from .common import build_workload_database

DEFAULT_TABLE_ROWS = 10_000
DEFAULT_FRACTIONS = (0.01, 0.05, 0.20, 1.00)

DEFINITION = AggregateViewDefinition(
    "qty_by_supplier", "parts", group_by=("supplier_id",),
    aggregates=(AggregateSpec("COUNT"), AggregateSpec("SUM", "quantity")),
)


def _one_fraction(table_rows: int, fraction: float) -> tuple[float, float]:
    source, workload = build_workload_database(table_rows, name="agg-bench")
    warehouse = Warehouse(clock=source.clock)
    view = MaterializedAggregateView(
        warehouse.database, DEFINITION, parts_schema()
    )
    txn = warehouse.database.begin()
    view.initialize((v for _r, v in source.table("parts").scan()), txn)
    warehouse.database.commit(txn)

    triggers = TriggerExtractor(source, "parts")
    triggers.install()
    churn = max(1, int(table_rows * fraction))
    workload.run_update(churn, assignment="quantity = quantity + 7")
    batch = triggers.drain_to_batch()

    with source.clock.stopwatch() as incremental_watch:
        txn = warehouse.database.begin()
        view.apply_value_delta(batch.records, txn)
        warehouse.database.commit(txn)
    incremental_ms = incremental_watch.elapsed

    # Recompute arm: fresh extract of the source + full rebuild.
    with source.clock.stopwatch() as recompute_watch:
        fresh_rows = list(source.table("parts").scan_values())
        view.table.truncate()
        view._rebuild_directory()
        txn = warehouse.database.begin()
        view.initialize(fresh_rows, txn)
        warehouse.database.commit(txn)
    recompute_ms = recompute_watch.elapsed

    expected = view.recompute(list(source.table("parts").scan_values()))
    actual = view.groups()
    assert set(actual) == set(expected)
    return incremental_ms, recompute_ms


def run(
    table_rows: int = DEFAULT_TABLE_ROWS,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
) -> ExperimentResult:
    incremental, recompute = [], []
    for fraction in fractions:
        inc_ms, rec_ms = _one_fraction(table_rows, fraction)
        incremental.append(inc_ms)
        recompute.append(rec_ms)

    result = ExperimentResult(
        experiment_id="aggregate_views",
        title="Aggregate view refresh: incremental vs recompute",
        parameters={"table_rows": table_rows},
        headers=[f"{f:.0%} churn" for f in fractions],
        series={
            "incremental_ms": incremental,
            "recompute_ms": recompute,
        },
        unit="ms",
    )
    result.check(
        "incremental wins decisively at small churn (>=5x at 1%)",
        recompute[0] > 5 * incremental[0],
    )
    result.check(
        "incremental advantage shrinks as churn grows",
        (recompute[0] / incremental[0]) > (recompute[-1] / incremental[-1]),
    )
    result.check(
        "recompute cost is roughly churn-independent (within 20%)",
        max(recompute) <= min(recompute) * 1.2,
    )
    result.check(
        "incremental cost scales with churn",
        incremental[-1] > 10 * incremental[0],
    )
    return result
