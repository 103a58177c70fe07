"""Fixed-iteration ``*_ns`` probes, run once in the traced rep.

Each probe times one public function of one layer on fixed inputs (no seed:
the same work on every commit), so a change in a probe is a change in that
function's host cost and nothing else.  The "with/without" probes run the
same statement stream on two fresh databases and report the difference per
statement or row — the only way to price capture hooks and triggers, which
run *inside* a source statement, from outside the library.
"""

from __future__ import annotations

import random
from time import perf_counter_ns
from typing import Any, Callable

from repro.analysis import OpDeltaAnalyzer
from repro.columnar import ColumnBatch
from repro.columnar.kernels import compile_predicate
from repro.core import FileLogStore, OpDeltaCapture
from repro.core.selfmaint import ViewDefinition
from repro.engine import Database
from repro.engine.rows import decode_row, encode_row
from repro.engine.table import InsertMode
from repro.extraction import TriggerExtractor
from repro.semantics import SchemaCatalog, SemanticChecker, ViewMaintenancePlanner
from repro.sql.expressions import evaluate
from repro.sql.parser import parse, parse_expression
from repro.workloads import parts_schema

from scenarios import insert_sql, part_row

ROWS = 1_000
PREDICATE = "quantity > 500 AND status = 'active'"
UPDATE_SQL = "UPDATE parts SET status = 'revised', price = 12.5 WHERE part_id = 417"


def _per_call_ns(function: Callable[[], Any], iterations: int) -> float:
    """Best of three batches: the box only ever adds time, never removes it."""
    best = None
    for _batch in range(3):
        started = perf_counter_ns()
        for _ in range(iterations):
            function()
        elapsed = perf_counter_ns() - started
        best = elapsed if best is None else min(best, elapsed)
    return best / iterations


def _rows() -> list[tuple]:
    rng = random.Random(20000229)
    return [part_row(rng, i, 20) for i in range(ROWS)]


def _database(rows: list[tuple], name: str) -> Database:
    database = Database(name)
    table = database.create_table(parts_schema(), auto_timestamp=True)
    txn = database.begin()
    for row in rows:
        table.insert(txn, row, mode=InsertMode.BULK_INTERNAL)
    database.commit(txn)
    database.checkpoint()
    return database


def _dml_stream() -> list[str]:
    """200 PK-point updates and 20 ten-row inserts: 400 rows changed."""
    rng = random.Random(7)
    stream = [
        f"UPDATE parts SET quantity = {rng.randint(0, 999)} "
        f"WHERE part_id = {rng.randrange(ROWS)}"
        for _ in range(200)
    ]
    for batch in range(20):
        base = ROWS + batch * 10
        stream.append(insert_sql(part_row(rng, base + i, 20) for i in range(10)))
    return stream


def _run_stream(rows: list[tuple], attach: Callable[[Database, Any], None]) -> int:
    """Host ns to run the DML stream on a fresh database."""
    database = _database(rows, "probe")
    session = database.internal_session()
    attach(database, session)
    stream = _dml_stream()
    started = perf_counter_ns()
    for sql in stream:
        session.execute(sql)
    return perf_counter_ns() - started


def run_all() -> dict[str, float]:
    """Every probe metric, by its per-layer name."""
    schema = parts_schema()
    rows = _rows()
    stamped = tuple(0.0 if v is None else v for v in rows[0])
    record = encode_row(schema, stamped)
    database = _database(rows, "probe-read")
    table = database.table("parts")

    def scan() -> None:
        for _ in table.scan():
            pass

    where = parse_expression(PREDICATE)
    env = dict(zip(schema.column_names, rows[1]))
    statement = parse(UPDATE_SQL)
    checker = SemanticChecker(SchemaCatalog([schema]))
    view = ViewDefinition(
        name="probe_view", base_table="parts", columns=schema.column_names,
        predicate="quantity > 500", key_column="part_id",
        base_columns=schema.column_names,
    )
    analyzer = OpDeltaAnalyzer(
        views=[view], mirrored_tables={"parts"},
        key_columns={"parts": "part_id"},
        table_columns={"parts": schema.column_names},
    )
    planner = ViewMaintenancePlanner(SchemaCatalog([schema]))
    batch = ColumnBatch.from_rows(schema.column_names, rows)
    layout, columns = batch.layout, batch.columns
    kernel = compile_predicate(where, layout)

    def filter_batch() -> None:
        for position in range(ROWS):
            kernel(columns, position)

    # With/without pairs: the three variants take turns five times and
    # each keeps its best run, because a difference of two noisy totals is
    # noisier than either.
    def plain(_database: Database, _session: Any) -> None:
        return None

    def with_capture(database: Database, session: Any) -> None:
        OpDeltaCapture(
            session, FileLogStore(database), tables={"parts"}
        ).attach()

    def with_triggers(database: Database, _session: Any) -> None:
        TriggerExtractor(database, "parts").install()

    variants = (plain, with_capture, with_triggers)
    best = [min(times) for times in zip(*(
        [_run_stream(rows, attach) for attach in variants] for _turn in range(5)
    ))]
    base_ns, capture_ns, trigger_ns = best
    statements = len(_dml_stream())

    return {
        "engine.rows.encode_ns": _per_call_ns(
            lambda: encode_row(schema, stamped), 5_000
        ),
        "engine.rows.decode_ns": _per_call_ns(
            lambda: decode_row(schema, record), 5_000
        ),
        "engine.table.scan_ns_per_row": _per_call_ns(scan, 10) / ROWS,
        "engine.index.lookup_ns": _per_call_ns(
            lambda: table.lookup("part_id", 417), 5_000
        ),
        "engine.trigger.ns_per_row": (trigger_ns - base_ns) / 400,
        "sql.parser.parse_ns": _per_call_ns(lambda: parse(UPDATE_SQL), 1_000),
        "sql.expressions.evaluate_ns": _per_call_ns(
            lambda: evaluate(where, env), 10_000
        ),
        "core.capture.ns_per_stmt": (capture_ns - base_ns) / statements,
        "semantics.planner.plan_ms": _per_call_ns(
            lambda: planner.plan_catalog([view]), 50
        ) / 1e6,
        "semantics.checker.check_ns": _per_call_ns(
            lambda: checker.check_statement(statement), 1_000
        ),
        "analysis.analyze.ns_per_stmt": _per_call_ns(
            lambda: analyzer.analyze_statement(statement), 1_000
        ),
        "columnar.kernels.compile_ns": _per_call_ns(
            lambda: compile_predicate(where, layout), 1_000
        ),
        "columnar.kernels.predicate_ns_per_row": _per_call_ns(filter_batch, 10)
        / ROWS,
    }
