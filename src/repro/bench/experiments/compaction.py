"""Compaction experiment: coalesced shipping + batched group-apply.

A mixed OLTP run with multi-statement source transactions is captured as
Op-Deltas, then moved to the warehouse two ways:

* **serial** — the captured window shipped verbatim and integrated one
  warehouse transaction per source commit (the baseline pipeline);
* **compacted** — the window rewritten by :class:`repro.compaction.Coalescer`
  (UPDATE folds, INSERT fusion, INSERT/DELETE annihilation, superseded
  UPDATEs dropped), enqueued through the persistent queue, drained as one
  window and applied by
  :meth:`~repro.warehouse.OpDeltaIntegrator.integrate_batched` — one
  warehouse transaction per conflict component, with per-window delta-rule
  memoization.

Equality of the two mirror and view states is the dynamic validation of
the rewrite rules; the headline numbers are bytes shipped and the
virtual-time apply span (per-component times replayed on worker lanes by
:func:`repro.warehouse.run_conflict_schedule`).
"""

from __future__ import annotations

from ...analysis import OpDeltaAnalyzer
from ...compaction import Coalescer
from ...core.capture import OpDeltaCapture
from ...core.selfmaint import ViewDefinition
from ...core.stores import FileLogStore
from ...transport.queue import PersistentQueue
from ...transport.shipper import enqueue_op_deltas
from ...warehouse.scheduler import run_conflict_schedule
from ...workloads.records import parts_schema, strip_timestamp
from ..report import ExperimentResult
from .common import build_parts_warehouse, build_workload_database

DEFAULT_TABLE_ROWS = 3_000
DEFAULT_FOLD_TXNS = 6
DEFAULT_CHURN_TXNS = 4
DEFAULT_SCRATCH_TXNS = 3
DEFAULT_INSERTS_PER_TXN = 6
TXN_ROWS = 20
WORKERS = 4

_COLS = (
    "part_id, part_ref, part_no, description, status, quantity, price, "
    "last_modified, supplier_id"
)


def build_analyzer() -> OpDeltaAnalyzer:
    """The warehouse-interest description shared by capture and apply.

    The view projects the full base row with no selection predicate so
    every captured operation stays on the OP_ONLY maintenance path — the
    workload is captured lean (no before images), which is what keeps the
    statements coalescible.
    """
    schema = parts_schema()
    view = ViewDefinition(
        name="parts_catalog",
        base_table="parts",
        columns=schema.column_names,
        predicate=None,
        key_column="part_id",
        base_columns=schema.column_names,
    )
    return OpDeltaAnalyzer(
        views=[view],
        mirrored_tables={"parts"},
        key_columns={"parts": "part_id"},
        table_columns={"parts": schema.column_names},
    )


def _insert(session, part_id: int, status: str = "new") -> None:
    session.execute(
        f"INSERT INTO parts ({_COLS}) VALUES ({part_id}, {part_id}, "
        f"'PN-{part_id}', 'compaction row', '{status}', 1, 9.5, 0, 7)"
    )


def _run_workload(
    session,
    fold_txns: int,
    churn_txns: int,
    scratch_txns: int,
    inserts_per_txn: int,
    txn_rows: int,
) -> None:
    """Multi-statement source transactions with coalescing opportunities.

    Transaction boundaries matter here: coalescing only rewrites *within*
    a source commit, so each shape below is one ``begin``/``commit``.
    """
    cursor = 0
    # Fold fodder: two literal updates over the same row range.
    for i in range(fold_txns):
        low, high = cursor, cursor + txn_rows
        cursor = high
        session.begin()
        session.execute(
            f"UPDATE parts SET status = 'revised' "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        session.execute(
            f"UPDATE parts SET price = {100 + i} "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        session.commit()
    # Churn: accumulating updates (fold via ``c = c + k``) plus a run of
    # single-row inserts (fuse into one multi-row statement).
    for i in range(churn_txns):
        low, high = cursor, cursor + txn_rows
        cursor = high
        base = 900_000 + i * (inserts_per_txn + 2)
        session.begin()
        session.execute(
            f"UPDATE parts SET quantity = quantity + 1 "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        session.execute(
            f"UPDATE parts SET quantity = quantity + 2 "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        for j in range(inserts_per_txn):
            _insert(session, base + j)
        session.commit()
    # Scratch rows and doomed ranges: INSERT/DELETE annihilation and an
    # UPDATE provably superseded by the DELETE that follows it.
    for i in range(scratch_txns):
        low, high = cursor, cursor + txn_rows // 4
        cursor += txn_rows
        scratch = 950_000 + i
        session.begin()
        _insert(session, scratch, status="tmp")
        session.execute(f"DELETE FROM parts WHERE part_id = {scratch}")
        session.execute(
            f"UPDATE parts SET description = 'obsolete' "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        session.execute(
            f"DELETE FROM parts WHERE part_ref >= {low} AND part_ref < {high}"
        )
        session.commit()
    # One time-dependent statement: never coalesced, pinned at apply time.
    low, high = cursor, cursor + txn_rows // 2
    session.execute(
        f"UPDATE parts SET last_modified = NOW() "
        f"WHERE part_ref >= {low} AND part_ref < {high}"
    )


def run(
    table_rows: int = DEFAULT_TABLE_ROWS,
    fold_txns: int = DEFAULT_FOLD_TXNS,
    churn_txns: int = DEFAULT_CHURN_TXNS,
    scratch_txns: int = DEFAULT_SCRATCH_TXNS,
    inserts_per_txn: int = DEFAULT_INSERTS_PER_TXN,
) -> ExperimentResult:
    source, workload = build_workload_database(table_rows, name="cp-source")
    initial_rows = list(source.table("parts").scan_values())
    analyzer = build_analyzer()
    store = FileLogStore(source)
    capture = OpDeltaCapture(
        workload.session, store, tables={"parts"}, analyzer=analyzer
    )
    capture.attach()
    _run_workload(
        workload.session,
        fold_txns,
        churn_txns,
        scratch_txns,
        inserts_per_txn,
        TXN_ROWS,
    )
    capture.detach()
    groups = store.drain()

    coalescer = Coalescer(analyzer=analyzer, clock=source.clock)
    compacted, compaction = coalescer.compact_window(groups)

    # Two identically loaded warehouses, each with the mirror and the view.
    wh_serial, integ_serial = build_parts_warehouse(
        "cp-wh-serial", source.clock, initial_rows, analyzer
    )
    wh_batched, integ_batched = build_parts_warehouse(
        "cp-wh-batched", source.clock, initial_rows, analyzer
    )

    # Serial baseline: the window verbatim, one warehouse txn per commit.
    serial_report = integ_serial.integrate(groups)

    # Compacted pipeline: through the persistent queue as one window.
    queue: PersistentQueue = PersistentQueue(source.clock, name="cp-queue")
    enqueue_op_deltas(queue, compacted)
    window = queue.receive_window(limit=len(compacted) + 1)
    batched_report = integ_batched.integrate_batched(
        [payload for _id, payload in window]
    )
    queue.ack_window(delivery_id for delivery_id, _payload in window)

    schema = parts_schema()
    state_serial = strip_timestamp(
        schema, list(wh_serial.database.table("parts").scan_values())
    )
    state_batched = strip_timestamp(
        schema, list(wh_batched.database.table("parts").scan_values())
    )
    view_serial = wh_serial.view("parts_catalog").rows()
    view_batched = wh_batched.view("parts_catalog").rows()

    schedule = run_conflict_schedule(
        [[ms] for ms in batched_report.per_component_ms], workers=WORKERS
    )
    apply_span = schedule.parallel_ms or batched_report.elapsed_ms
    speedup = serial_report.elapsed_ms / apply_span if apply_span else 1.0

    result = ExperimentResult(
        experiment_id="compaction",
        title="Op-Delta compaction: coalesced shipping, batched group-apply",
        parameters={
            "table_rows": table_rows,
            "transactions": len(groups),
            "conflict_components": batched_report.components,
            "workers": WORKERS,
        },
        headers=["serial", "compacted+batched"],
        series={
            "ops_shipped": [compaction.ops_in, compaction.ops_out],
            "bytes_shipped": [compaction.bytes_in, compaction.bytes_out],
            "statements_applied": [
                serial_report.statements_issued,
                batched_report.statements_issued,
            ],
            "warehouse_txns": [
                serial_report.transactions,
                batched_report.components,
            ],
            "apply_span_ms": [serial_report.elapsed_ms, apply_span],
        },
        unit="generic",
    )
    result.check(
        "compacted+batched pipeline reproduces the serial mirror state",
        sorted(state_serial) == sorted(state_batched),
    )
    result.check(
        "compacted+batched pipeline reproduces the serial view state",
        view_serial == view_batched,
    )
    result.check(
        "compaction saves at least 30% of shipped bytes",
        compaction.bytes_ratio <= 0.7,
    )
    result.check(
        "batched apply is at least 1.5x faster than serial (virtual time)",
        speedup >= 1.5,
    )
    result.check(
        "every rewrite rule fired at least once",
        compaction.updates_folded > 0
        and compaction.inserts_fused > 0
        and compaction.pairs_annihilated > 0
        and compaction.updates_superseded > 0,
    )
    result.check(
        "the NOW() statement survives compaction and is pinned in both "
        "pipelines",
        serial_report.statements_pinned == 1
        and batched_report.statements_pinned == 1,
    )
    result.check(
        "the per-window rule memo absorbs repeat (table, kind, view) lookups",
        batched_report.rule_cache_hits > 0
        and batched_report.rule_lookups
        > batched_report.rule_lookups - batched_report.rule_cache_hits,
    )
    result.notes.append(
        f"Compaction: {compaction.ops_in} ops -> {compaction.ops_out} "
        f"({compaction.updates_folded} folded, {compaction.inserts_fused} "
        f"fused, {compaction.pairs_annihilated} annihilated, "
        f"{compaction.updates_superseded} superseded); "
        f"{compaction.bytes_in:,} -> {compaction.bytes_out:,} bytes "
        f"({(1 - compaction.bytes_ratio) * 100:.0f}% saved)."
    )
    result.notes.append(
        f"Apply: {serial_report.transactions} warehouse txns serial vs "
        f"{batched_report.components} group commits on {WORKERS} lanes; "
        f"{serial_report.elapsed_ms:,.0f} ms -> {apply_span:,.0f} ms "
        f"({speedup:.2f}x)."
    )
    return result
