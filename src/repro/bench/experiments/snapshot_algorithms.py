"""§3.1.2 ablation — differential-snapshot algorithms (Labio/Garcia-Molina).

The paper calls the snapshot method "prohibitively resource intensive" and
refers to LGM '96 for algorithm analysis.  This ablation measures the three
implemented algorithm families on the same snapshot pair:

* cost: naive (quadratic) vs sort-merge vs single-pass window;
* output quality: the window algorithm trades minimality for memory —
  out-of-window matches degrade to delete+insert pairs, so it may emit
  *more* records, while all three outputs remain correct (applying them to
  the old snapshot yields the new one).
"""

from __future__ import annotations

from functools import partial

from ...engine.database import Database
from ...engine.snapshots import take_snapshot
from ...engine.table import InsertMode
from ...extraction.deltas import apply_batch_to_rows
from ...extraction.snapshot_diff import ALGORITHMS, diff_window
from ...workloads.records import parts_schema
from ..report import ExperimentResult
from .common import build_workload_database

DEFAULT_TABLE_ROWS = 4_000
DEFAULT_CHURN = 600
#: Deliberately smaller than the churn displacement so the window
#: algorithm's non-minimal behaviour is visible.
DEFAULT_WINDOW = 64


def run(
    table_rows: int = DEFAULT_TABLE_ROWS,
    churn_rows: int = DEFAULT_CHURN,
) -> ExperimentResult:
    database, workload = build_workload_database(table_rows, name="snap-source")
    with database.clock.stopwatch() as dump_watch:
        old = take_snapshot(database, "parts")
    dump_cost = dump_watch.elapsed
    # Churn: updates, deletes and inserts between the snapshots.
    workload.run_update(churn_rows, assignment="status = 'revised'")
    workload.run_delete(churn_rows // 2, top_up=False)
    workload.run_insert(churn_rows // 2)
    # The second dump comes after the table was reorganised (compacted) —
    # the realistic case where consecutive dumps are not position-aligned,
    # which is exactly when the window algorithm's bounded buffers miss
    # matches (LGM '96 discuss unordered files).
    reorganised = Database("snap-reorg", clock=database.clock)
    reorg_workload_table = reorganised.create_table(parts_schema())
    txn = reorganised.begin()
    current = sorted(
        database.table("parts").scan_values(),
        key=lambda row: row[0],
    )
    for row in current:
        reorg_workload_table.insert(txn, row, mode=InsertMode.BULK_INTERNAL)
    reorganised.commit(txn)
    with database.clock.stopwatch() as dump_watch:
        new = take_snapshot(reorganised, "parts")
    dump_cost += dump_watch.elapsed

    key_index = old.schema.primary_key_index()
    assert key_index is not None
    costs: dict[str, float] = {}
    record_counts: dict[str, float] = {}
    correct: dict[str, bool] = {}
    algorithms = {**ALGORITHMS, "window": partial(diff_window, window=DEFAULT_WINDOW)}
    for name, algorithm in algorithms.items():
        with database.clock.stopwatch() as watch:
            batch = algorithm(database, old, new)
        costs[name] = watch.elapsed
        record_counts[name] = float(len(batch))
        applied = sorted(apply_batch_to_rows(batch, old.rows, key_index))
        correct[name] = applied == sorted(new.rows)

    result = ExperimentResult(
        experiment_id="snapshot_algorithms",
        title="Differential-snapshot algorithms (LGM '96 families)",
        parameters={
            "table_rows": table_rows,
            "churn_rows": churn_rows,
            "window": DEFAULT_WINDOW,
        },
        headers=list(ALGORITHMS),
        series={
            "diff_cost_ms": [costs[name] for name in ALGORITHMS],
            "delta_records": [record_counts[name] for name in ALGORITHMS],
            "two_dumps_ms": [dump_cost] * len(ALGORITHMS),
        },
        unit="generic",
    )
    for name in ALGORITHMS:
        result.check(f"{name} delta re-creates the new snapshot", correct[name])
    result.check(
        "sort-merge beats naive", costs["sort_merge"] < costs["naive"]
    )
    result.check(
        "window single pass is cheapest", costs["window"] <= costs["sort_merge"]
    )
    result.check(
        "window output is non-minimal (more records than sort-merge)",
        record_counts["window"] > record_counts["sort_merge"],
    )
    result.check(
        "snapshot dumps dominate: two dumps cost more than the best diff",
        dump_cost > min(costs.values()),
    )
    result.notes.append(
        "The snapshot method additionally pays two full dumps before any "
        "diffing — the reason §3.1.2 rates it the most source-intensive "
        "method."
    )
    return result
