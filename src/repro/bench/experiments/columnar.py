"""Columnar experiment: batched group-apply from compiled kernels.

A mixed OLTP run (range updates, insert bursts, scratch deletes, one
``NOW()`` statement, and an update surge against a small hot table) is
captured as Op-Deltas and moved to the warehouse three ways:

* **serial** — the window verbatim, one warehouse transaction per source
  commit, row-at-a-time statement interpretation;
* **batched rows** — :meth:`~repro.warehouse.OpDeltaIntegrator.
  integrate_batched`, one warehouse transaction per conflict component,
  still interpreting each statement per row;
* **columnar** — the same batched schedule with ``columnar=True``: each
  component commits from :class:`~repro.columnar.ColumnarApplier` batch
  buffers through kernels compiled once per ``(plan, statement)``.

The window passes through the
:class:`~repro.extraction.AdaptiveExtractionSwitcher` on its way to the
queue: the hot table's backlog prices cheaper as a snapshot/bulk-load
staging refresh than as statement replay, so its ops are routed away
(recorded as ``ROUTED``/``PRUNED`` lifecycle events) and both batched
warehouses reload it via
:meth:`~repro.warehouse.Warehouse.staging_refresh`.

A second window with the same statement shapes replays through the same
integrators, so the cross-window rule memo and the kernel cache start
warm — the amortisation the persistent plan-certificate keying buys.

Validation is strict: the columnar mirror and view states must be
**bit-for-bit** the row-at-a-time states (raw row equality against the
batched-row pipeline, XOR-SHA256 state digests against the serial one),
and the :class:`~repro.obs.pipeline.auditor.PipelineAuditor` must close
lineage conservation over the routed window with a CLEAN verdict.
"""

from __future__ import annotations

from ...analysis import OpDeltaAnalyzer
from ...core.capture import OpDeltaCapture
from ...core.selfmaint import ViewDefinition
from ...core.stores import FileLogStore
from ...engine.table import InsertMode
from ...extraction.switcher import AdaptiveExtractionSwitcher, TableProfile
from ...obs.pipeline.auditor import PipelineAuditor, StateDigest
from ...obs.pipeline.context import observe_pipeline
from ...obs.pipeline.recorder import PipelineRecorder
from ...semantics import SchemaCatalog, ViewMaintenancePlanner
from ...transport.queue import PersistentQueue
from ...transport.shipper import enqueue_op_deltas
from ...warehouse.opdelta_integrator import OpDeltaIntegrator
from ...warehouse.scheduler import run_conflict_schedule
from ...warehouse.warehouse import Warehouse
from ...workloads.records import PartsGenerator, parts_schema, strip_timestamp
from ..report import ExperimentResult
from .common import build_workload_database

DEFAULT_TABLE_ROWS = 3_000
HOT_ROWS = 60
UPDATE_TXNS = 10
INSERT_TXNS = 4
INSERTS_PER_TXN = 6
SCRATCH_TXNS = 2
TXN_ROWS = 30
SURGE_TXNS = 30
WORKERS = 4

_COLS = (
    "part_id, part_ref, part_no, description, status, quantity, price, "
    "last_modified, supplier_id"
)


def build_analyzer() -> OpDeltaAnalyzer:
    """Warehouse interest: the full-width parts view plus both mirrors."""
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
        mirrored_tables={"parts", "hot_parts"},
        key_columns={"parts": "part_id", "hot_parts": "part_id"},
        table_columns={
            "parts": schema.column_names,
            "hot_parts": schema.column_names,
        },
    )


def _insert(session, table: str, part_id: int, status: str = "new") -> None:
    session.execute(
        f"INSERT INTO {table} ({_COLS}) VALUES ({part_id}, {part_id}, "
        f"'PN-{part_id}', 'columnar row', '{status}', 1, 9.5, 0, 7)"
    )


def _update_window(session) -> None:
    """Range updates with stable statement texts (kernel-reusable)."""
    for i in range(UPDATE_TXNS):
        low, high = i * TXN_ROWS, (i + 1) * TXN_ROWS
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


def _insert_window(session, base: int) -> None:
    for i in range(INSERT_TXNS):
        session.begin()
        for j in range(INSERTS_PER_TXN):
            _insert(session, "parts", base + i * INSERTS_PER_TXN + j)
        session.commit()


def _scratch_window(session, base: int) -> None:
    """Scratch inserts deleted in the same transaction, plus range deletes."""
    for i in range(SCRATCH_TXNS):
        low = 2_000 + i * (TXN_ROWS // 4)
        high = low + TXN_ROWS // 4
        scratch = base + i
        session.begin()
        _insert(session, "parts", scratch, status="tmp")
        session.execute(f"DELETE FROM parts WHERE part_id = {scratch}")
        session.execute(
            f"DELETE FROM parts WHERE part_ref >= {low} AND part_ref < {high}"
        )
        session.commit()


def _surge_window(session) -> None:
    """Backlog against the hot table: full-range churn, every transaction."""
    for i in range(SURGE_TXNS):
        session.begin()
        session.execute(
            f"UPDATE hot_parts SET quantity = quantity + {i + 1} "
            "WHERE part_ref >= 0"
        )
        session.execute(
            f"UPDATE hot_parts SET status = 'hot-{i}' WHERE part_ref >= 0"
        )
        session.commit()


def run(table_rows: int = DEFAULT_TABLE_ROWS) -> ExperimentResult:
    source, workload = build_workload_database(table_rows, name="col-source")
    schema = parts_schema()
    hot_schema = parts_schema("hot_parts")
    source.create_table(hot_schema)
    hot_table = source.table("hot_parts")
    txn = source.begin()
    for row in PartsGenerator(seed=7).rows(HOT_ROWS):
        hot_table.insert(txn, row, mode=InsertMode.BULK_INTERNAL)
    source.commit(txn)
    source.checkpoint()

    initial_rows = list(source.table("parts").scan_values())
    hot_initial = list(hot_table.scan_values())

    analyzer = build_analyzer()
    view_def = analyzer.views[0]
    plans = ViewMaintenancePlanner(SchemaCatalog([schema])).plan_catalog(
        [view_def]
    )
    switcher = AdaptiveExtractionSwitcher(
        profiles={
            "parts": TableProfile(rows=table_rows),
            "hot_parts": TableProfile(rows=HOT_ROWS),
        }
    )

    # Three identically loaded warehouses: serial rows, batched rows,
    # batched columnar.
    warehouses = []
    integrators = []
    for label in ("serial", "rows", "columnar"):
        wh = Warehouse(f"col-wh-{label}", clock=source.clock)
        wh.create_mirror(schema)
        wh.create_mirror(hot_schema)
        wh.initial_load_rows("parts", initial_rows)
        wh.initial_load_rows("hot_parts", hot_initial)
        view = wh.define_view(view_def, schema)
        init_txn = wh.database.begin()
        view.initialize(initial_rows, init_txn)
        wh.database.commit(init_txn)
        warehouses.append(wh)
        integrators.append(
            OpDeltaIntegrator(
                wh.database.internal_session(),
                views=[view],
                analyzer=analyzer,
                plans=plans,
            )
        )
    wh_serial, wh_rows, wh_col = warehouses
    integ_serial, integ_rows, integ_col = integrators

    recorder = PipelineRecorder(clock=source.clock)
    store = FileLogStore(source)
    capture = OpDeltaCapture(
        workload.session,
        store,
        tables={"parts", "hot_parts"},
        analyzer=analyzer,
    )
    queue: PersistentQueue = PersistentQueue(source.clock, name="col-queue")
    windows: list[list] = []
    col_reports = []
    graphs = []
    with observe_pipeline(recorder):
        # Window 1: the mixed parts workload plus the hot-table surge.
        capture.attach()
        _update_window(workload.session)
        _insert_window(workload.session, 900_000)
        _scratch_window(workload.session, 950_000)
        _surge_window(workload.session)
        low, high = UPDATE_TXNS * TXN_ROWS, UPDATE_TXNS * TXN_ROWS + TXN_ROWS // 2
        workload.session.execute(
            f"UPDATE parts SET last_modified = NOW() "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        capture.detach()
        window1 = store.drain()
        # Window 2: the identical update shapes (warm memo and kernels)
        # plus a fresh insert burst.
        capture.attach()
        _update_window(workload.session)
        _insert_window(workload.session, 960_000)
        capture.detach()
        window2 = store.drain()

        # The columnar pipeline routes each window through the switcher
        # (diverted tables never reach the queue), then the queue and the
        # batched columnar integrator.
        for window in (window1, window2):
            routed, _decisions = switcher.route_window(
                window, at_ms=queue.clock.now
            )
            enqueue_op_deltas(queue, routed)
            received = queue.receive_window(limit=len(window) + 1)
            payloads = [payload for _id, payload in received]
            graph = analyzer.conflict_graph(payloads)
            graphs.append(graph)
            windows.append(payloads)
            col_reports.append(
                integ_col.integrate_batched(payloads, graph, columnar=True)
            )
            queue.ack_window(d for d, _p in received)
        for table in switcher.staged_tables:
            staged = list(source.table(table).scan_values())
            wh_col.staging_refresh(table, staged)

    # Reference pipelines, outside the recorder: the serial one replays
    # everything (hot surge included) row at a time; the batched-row one
    # applies exactly the routed windows the columnar pipeline saw.
    serial_r1 = integ_serial.integrate(window1)
    serial_r2 = integ_serial.integrate(window2)
    row_reports = [
        integ_rows.integrate_batched(payloads, graph)
        for payloads, graph in zip(windows, graphs)
    ]
    for table in switcher.staged_tables:
        staged = list(source.table(table).scan_values())
        wh_rows.staging_refresh(table, staged)

    # ----------------------------------------------------------- validation
    def mirror_rows(wh: Warehouse, table: str) -> list[tuple]:
        return sorted(wh.database.table(table).scan_values())

    raw_rows_match = (
        mirror_rows(wh_rows, "parts") == mirror_rows(wh_col, "parts")
        and mirror_rows(wh_rows, "hot_parts") == mirror_rows(wh_col, "hot_parts")
        and wh_rows.view("parts_catalog").rows()
        == wh_col.view("parts_catalog").rows()
    )

    auditor = PipelineAuditor(recorder)
    components = [c for graph in graphs for c in graph.components]
    audit = auditor.audit(conflict_components=components)
    digest_specs = (
        ("mirror", mirror_rows(wh_serial, "parts"), mirror_rows(wh_col, "parts")),
        (
            "hot-mirror",
            mirror_rows(wh_serial, "hot_parts"),
            mirror_rows(wh_col, "hot_parts"),
        ),
        (
            "view",
            wh_serial.view("parts_catalog").rows(),
            wh_col.view("parts_catalog").rows(),
        ),
    )
    digests_match = True
    for position, serial_state, col_state in digest_specs:
        digests_match &= auditor.check_digest(
            audit,
            position,
            StateDigest.from_rows(strip_timestamp(schema, serial_state)),
            StateDigest.from_rows(strip_timestamp(schema, col_state)),
        )

    serial_span = serial_r1.elapsed_ms + serial_r2.elapsed_ms
    row_span = sum(r.elapsed_ms for r in row_reports)
    col_span = sum(r.elapsed_ms for r in col_reports)
    speedup = row_span / col_span if col_span else 1.0

    row_stmts = sum(r.statements_issued for r in row_reports)
    col_stmts = sum(r.statements_issued for r in col_reports)
    schedule_rows = run_conflict_schedule(
        [[ms] for r in row_reports for ms in r.per_component_ms],
        workers=WORKERS,
        ops=row_stmts,
    )
    schedule_col = run_conflict_schedule(
        [[ms] for r in col_reports for ms in r.per_component_ms],
        workers=WORKERS,
        ops=col_stmts,
    )

    routed = [d for d in switcher.decisions if d.use_staging]
    col_fallbacks = sum(r.columnar_fallbacks for r in col_reports)
    col_columnar = sum(r.columnar_statements for r in col_reports)

    result = ExperimentResult(
        experiment_id="columnar",
        title="Columnar hot-path apply: compiled kernels vs row-at-a-time",
        parameters={
            "table_rows": table_rows,
            "hot_rows": HOT_ROWS,
            "windows": len(windows),
            "transactions": len(window1) + len(window2),
            "routed_tables": len(routed),
            "workers": WORKERS,
        },
        headers=["serial", "batched-rows", "batched-columnar"],
        series={
            "apply_span_ms": [serial_span, row_span, col_span],
            "statements_applied": [
                serial_r1.statements_issued + serial_r2.statements_issued,
                row_stmts,
                col_stmts,
            ],
            "columnar_statements": [0, 0, col_columnar],
            "rows_batched": [0, 0, sum(r.columnar_rows for r in col_reports)],
            "schedule_ops_per_s": [
                0.0,
                schedule_rows.parallel_ops_per_s,
                schedule_col.parallel_ops_per_s,
            ],
        },
        unit="generic",
    )
    result.check(
        "columnar apply is bit-for-bit the row-at-a-time state "
        "(mirrors, hot mirror and view, raw rows)",
        raw_rows_match,
    )
    result.check(
        "XOR-SHA256 state digests match the serial replay at every position",
        digests_match,
    )
    result.check(
        "columnar batched apply is at least 2x the row-batched throughput "
        "(virtual time)",
        speedup >= 2.0,
    )
    result.check(
        "pipeline auditor closes conservation with a CLEAN verdict "
        "(switcher decisions included)",
        audit.verdict == "CLEAN" and audit.conservation_holds,
    )
    result.check(
        "the switcher routed the hot table to snapshot/bulk-load staging "
        "and recorded every decision",
        len(routed) >= 1
        and all(d.table == "hot_parts" for d in routed)
        and recorder.routing_decisions == len(switcher.decisions),
    )
    result.check(
        "window 2 starts with a warm cross-window rule memo and reuses "
        "compiled kernels",
        col_reports[1].rule_memo_preloaded > 0
        and col_reports[1].kernel_cache_hits > 0,
    )
    result.check(
        "both schedule certifications passed and the columnar mode reports "
        "its statements",
        all(r.certificate_verdict == "CERTIFIED" for r in col_reports)
        and col_columnar > 0,
    )
    result.notes.append(
        f"Apply spans: serial {serial_span:,.0f} ms, batched rows "
        f"{row_span:,.0f} ms, columnar {col_span:,.0f} ms "
        f"({speedup:.2f}x rows->columnar)."
    )
    result.notes.append(
        f"Columnar: {col_columnar} compiled statements, "
        f"{col_fallbacks} row-path fallbacks, "
        f"{sum(r.kernel_compiles for r in col_reports)} kernel compiles, "
        f"{sum(r.kernel_cache_hits for r in col_reports)} cache hits "
        f"(memo preloaded {col_reports[1].rule_memo_preloaded} at window 2)."
    )
    if routed:
        decision = routed[0]
        result.notes.append("Switcher: " + decision.render())
    return result
