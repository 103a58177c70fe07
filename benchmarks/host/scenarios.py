"""The four benchmark workloads: generated inputs, pipelines, verification.

Every scenario has three parts, kept apart on purpose:

* ``generate`` — builds the whole input (initial rows, every source
  statement, every OLAP query) from ``random.Random(seed)`` *before* any
  library object exists.  The library receives only these generated
  statements; their SHA-256 is recorded so two commits provably ran the
  same inputs.
* the pipeline (``setup`` / ``source_txn`` / ``maintain``) — calls into the
  public API of ``src/repro`` only, with a harness span around each call
  into a layer.
* ``verify`` — the correctness gate, in plain Python over scanned rows: it
  shares no code with the evaluator, executor or view runtime it checks.

Sizes are constants of the workload, identical on every commit; only the
number of timed windows scales with ``--seconds``.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.analysis import OpDeltaAnalyzer
from repro.compaction import Coalescer
from repro.core import FileLogStore, OpDeltaCapture
from repro.core.selfmaint import ViewDefinition
from repro.engine import Database
from repro.engine.snapshots import take_snapshot
from repro.engine.table import InsertMode
from repro.errors import ReproError
from repro.extraction import (
    LogExtractor,
    TimestampExtractor,
    TriggerExtractor,
    apply_batch_to_rows,
    diff_snapshots,
)
from repro.obs.pipeline import StateDigest
from repro.semantics import SchemaCatalog, ViewMaintenancePlanner
from repro.transport.network import NetworkModel
from repro.transport.queue import PersistentQueue
from repro.transport.shipper import FileShipper, enqueue_op_deltas
from repro.warehouse import OpDeltaIntegrator, ValueDeltaIntegrator, Warehouse
from repro.warehouse.olap import standard_queries
from repro.workloads import parts_schema, strip_timestamp, suppliers_schema

STATUSES = ("new", "active", "revised", "shipped", "retired")
#: Positions in a PARTS row (``repro.workloads.parts_schema``).
PART_ID, STATUS, QUANTITY, PRICE, TIMESTAMP, SUPPLIER = 0, 4, 5, 6, 7, 8
_COLS = (
    "part_id, part_ref, part_no, description, status, quantity, price, "
    "last_modified, supplier_id"
)


# ------------------------------------------------------------------ generation
@dataclass
class Stream:
    """One rep's complete input, generated before timing starts."""

    initial_rows: list[tuple]
    supplier_rows: list[tuple]
    #: window -> transaction -> SQL statements.
    windows: list[list[list[str]]]
    #: window -> (query name, SQL, reference parameter).
    queries: list[list[tuple[str, str, Any]]]
    sha256: str = field(default="", init=False)

    def __post_init__(self) -> None:
        digest = hashlib.sha256()
        for part in (
            self.initial_rows, self.supplier_rows, self.windows, self.queries
        ):
            digest.update(repr(part).encode("utf-8"))
        self.sha256 = digest.hexdigest()


def part_row(rng, part_id: int, suppliers: int) -> tuple:
    """One PARTS row; the timestamp is left to the source's own clock."""
    return (
        part_id,
        part_id,
        f"PN-{part_id:08d}",
        f"part {part_id} {rng.choice('ABCDEF') * rng.randint(3, 8)}",
        rng.choice(STATUSES),
        rng.randint(0, 999),
        round(rng.uniform(0.5, 5000.0), 2),
        None,
        rng.randrange(suppliers),
    )


def _literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def insert_sql(rows: Iterable[tuple]) -> str:
    """One (array) INSERT statement carrying ``rows``."""
    values = ", ".join(
        "(" + ", ".join(_literal(v) for v in row) + ")" for row in rows
    )
    return f"INSERT INTO parts ({_COLS}) VALUES {values}"


def _scan_assignment(rng) -> str:
    """A SET clause that never moves a row across ``quantity > 500``."""
    choice = rng.randrange(3)
    if choice == 0:
        return f"status = '{rng.choice(STATUSES)}'"
    if choice == 1:
        return f"price = {round(rng.uniform(0.5, 5000.0), 2)}"
    return f"description = 'rev {rng.randrange(10_000)}'"


def _standard_mix(dimension: bool = False) -> list[tuple[str, str, Any]]:
    if dimension:
        queries = standard_queries(
            "parts", "quantity", "status", "status", "active",
            dimension_table="suppliers", dimension_key="supplier_id",
            fact_foreign_key="supplier_id",
        )
    else:
        queries = standard_queries(
            "parts", "quantity", "status", "status", "active"
        )
    return [(query.name, query.sql, None) for query in queries]


# ---------------------------------------------------------------- verification
_SCHEMA = parts_schema()


def logical(rows: Iterable[Sequence[Any]]) -> list[tuple]:
    """Rows without their timestamp column, sorted (logical content)."""
    return strip_timestamp(_SCHEMA, rows)


def reference_answer(
    name: str, param: Any, mirror: list[tuple], supplier_keys: set[int]
) -> Any:
    """The expected OLAP answer, computed in plain Python from mirror rows."""
    if name == "total_measure":
        return len(mirror), sum(row[QUANTITY] for row in mirror)
    if name == "by_group":
        groups: dict[str, list[int]] = {}
        for row in mirror:
            groups.setdefault(row[STATUS], []).append(row[QUANTITY])
        return {
            status: (len(values), sum(values) / len(values))
            for status, values in groups.items()
        }
    if name == "filtered":
        return sum(1 for row in mirror if row[STATUS] == "active")
    if name == "dimension_join":
        return sum(1 for row in mirror if row[SUPPLIER] in supplier_keys)
    if name == "ordered":
        return sorted(
            (row[PRICE], row[PART_ID]) for row in mirror if row[STATUS] == param
        )
    if name == "point":
        return logical(row for row in mirror if row[PART_ID] == param)
    raise ValueError(f"no reference for query {name!r}")


def answer_matches(name: str, rows: list[tuple], expected: Any) -> bool:
    """Does the executor's result equal the plain-Python reference?"""
    if name == "total_measure":
        return len(rows) == 1 and tuple(rows[0]) == expected
    if name == "by_group":
        if len(rows) != len(expected) or {r[0] for r in rows} != set(expected):
            return False
        return all(
            count == expected[status][0]
            and math.isclose(mean, expected[status][1], rel_tol=1e-9)
            for status, count, mean in rows
        )
    if name in ("filtered", "dimension_join"):
        return len(rows) == 1 and rows[0][0] == expected
    if name == "ordered":
        prices = [price for _part_id, price in rows]
        descending = all(a >= b for a, b in zip(prices, prices[1:]))
        return descending and sorted(
            (price, part_id) for part_id, price in rows
        ) == expected
    if name == "point":
        return logical(rows) == expected
    return False


# -------------------------------------------------------------------- scenarios
class Scenario:
    """Shared rig: source, warehouse mirror, OLAP session, state checks."""

    name = ""
    table_rows = 0
    suppliers = 20
    txns_per_window = 0
    #: Timed windows per rep at the ``run_seconds`` of ``BENCHMARK.json``:
    #: about four timed seconds per rep on the reference box.
    reference_windows = 0
    archive_mode = False
    #: ``(name, predicate)`` of the full-width view the warehouse keeps.
    view_spec: tuple[str, str | None] | None = None
    #: Run one ``sys.*`` catalog query after every window (timed apart).
    queries_catalog = False

    def __init__(self, spans, registry) -> None:
        self.spans = spans
        #: The traced rep's shared registry (``None`` when untraced: every
        #: component then keeps its own private one, the library default).
        self.registry = registry
        self.schema = parts_schema()
        self.view_definition: ViewDefinition | None = None
        if self.view_spec is not None:
            columns = self.schema.column_names
            name, predicate = self.view_spec
            self.view_definition = ViewDefinition(
                name=name, base_table="parts", columns=columns,
                predicate=predicate, key_column="part_id", base_columns=columns,
            )
        #: Integrated statements / delta records and rows, for apply metrics.
        self.tally: defaultdict[str, float] = defaultdict(float)
        #: Conflict components applied so far (batched apply only); the
        #: auditor checks that no component was reordered internally.
        self.components: list[tuple[int, ...]] = []
        #: The Op-Delta log store, where the scenario captures Op-Deltas.
        self.store: FileLogStore | None = None

    @classmethod
    def timed_windows(cls, scale: float) -> int:
        return max(2, round(cls.reference_windows * scale))

    # ------------------------------------------------------------------ setup
    def setup(self, stream: Stream) -> None:
        source = Database("source", archive_mode=self.archive_mode)
        table = source.create_table(self.schema, auto_timestamp=True)
        txn = source.begin()
        for row in stream.initial_rows:
            table.insert(txn, row, mode=InsertMode.BULK_INTERNAL)
        source.commit(txn)
        self.index_source(table)
        # Checkpoint so window 0 does not pay the load's write-back debt.
        source.checkpoint()
        self.source = source
        self.clock = source.clock
        self.session = source.internal_session()

        initial = [values for _rid, values in table.scan()]
        warehouse = Warehouse(clock=source.clock)
        warehouse.create_mirror(self.schema)
        warehouse.initial_load_rows("parts", initial)
        self.supplier_keys = {row[0] for row in stream.supplier_rows}
        if stream.supplier_rows:
            warehouse.database.create_table(suppliers_schema())
            warehouse.initial_load_rows("suppliers", stream.supplier_rows)
        self.view = None
        if self.view_definition is not None:
            self.view = warehouse.define_view(self.view_definition, self.schema)
            txn = warehouse.database.begin()
            self.view.initialize(initial, txn)
            warehouse.database.commit(txn)
        self.warehouse = warehouse
        self.olap = warehouse.database.internal_session()
        self.shipper = FileShipper(
            NetworkModel(source.clock, metrics=self.registry)
        )
        self.build_pipeline()

    def index_source(self, table) -> None:
        """Secondary indexes on the source table (none by default)."""

    def build_pipeline(self) -> None:
        raise NotImplementedError

    # ---------------------------------------------------------------- per window
    def source_txn(self, statements: list[str]) -> int:
        """One source transaction, BEGIN..COMMIT; returns rows changed."""
        session = self.session
        span = self.spans.span
        changed = 0
        with span("engine.transaction"):
            session.begin()
            for sql in statements:
                with span("sql.executor.dml"):
                    changed += session.execute(sql).rows_affected
            session.commit()
        return changed

    def abort_source_txn(self) -> None:
        if self.session.in_transaction:
            self.session.rollback()

    def maintain(self) -> int:
        """The window's maintenance step; returns ops handed to apply."""
        raise NotImplementedError

    def add(self, key: str, amount: float) -> None:
        self.tally[key] += amount

    def tally_apply(self, report) -> None:
        self.add("warehouse.apply.statements", report.statements_issued)
        self.add("warehouse.apply.rows", report.rows_affected)
        self.add("warehouse.rule_lookups", report.rule_lookups)
        self.add("warehouse.rule_cache_hits", report.rule_cache_hits)
        self.add("columnar.statements", report.columnar_statements)
        self.add("columnar.fallbacks", report.columnar_fallbacks)
        self.add("columnar.kernel_compiles", report.kernel_compiles)
        self.add("columnar.kernel_cache_hits", report.kernel_cache_hits)

    # ------------------------------------------------------------- verification
    def verify_state(self) -> tuple[list[str], list[tuple]]:
        """Mirror == source and view == recompute; returns (misses, mirror)."""
        misses: list[str] = []
        source = [v for _rid, v in self.source.table("parts").scan()]
        mirror = [
            v for _rid, v in self.warehouse.database.table("parts").scan()
        ]
        if StateDigest.from_rows(logical(source)) != StateDigest.from_rows(
            logical(mirror)
        ):
            misses.append("mirror digest differs from the source table")
        if self.view is not None:
            expected = logical(row for row in mirror if self.in_view(row))
            if StateDigest.from_rows(expected) != StateDigest.from_rows(
                logical(self.view.rows())
            ):
                misses.append(
                    f"view {self.view.definition.name} differs from recompute"
                )
        misses.extend(self.verify_extraction(source))
        return misses, mirror

    def in_view(self, row: tuple) -> bool:
        return True

    def verify_extraction(self, source_rows: list[tuple]) -> list[str]:
        return []

    def store_bytes(self) -> int:
        return self.store.bytes_written if self.store is not None else 0


class OpDeltaScan(Scenario):
    name = "opdelta_scan"
    table_rows = 2_000
    #: Three of each kind, so every window does the same work.
    txns_per_window = 9
    reference_windows = 9
    block = 10
    view_spec = ("busy_parts", "quantity > 500")

    @classmethod
    def row(cls, rng, part_id: int) -> tuple:
        """A PARTS row whose view membership follows its id's parity.

        Every 10-row block then holds exactly five rows of the
        ``quantity > 500`` view, so what a statement costs the view does
        not depend on which block the seed picked.
        """
        row = part_row(rng, part_id, cls.suppliers)
        quantity = row[QUANTITY] % 500 + (501 if part_id % 2 else 0)
        return row[:QUANTITY] + (quantity,) + row[QUANTITY + 1:]

    @classmethod
    def generate(cls, rng, windows: int) -> Stream:
        initial = [cls.row(rng, i) for i in range(cls.table_rows)]
        # Live ids are tracked as dense blocks, so every range predicate
        # selects exactly ``block`` rows through the unindexed part_ref.
        live = list(range(0, cls.table_rows, cls.block))
        next_id = cls.table_rows
        stream_windows = []
        counter = 0
        for _window in range(windows):
            txns = []
            for _txn in range(cls.txns_per_window):
                kind = counter % 3
                counter += 1
                if kind == 0:
                    low = rng.choice(live)
                    sql = (
                        f"UPDATE parts SET {_scan_assignment(rng)} WHERE "
                        f"part_ref >= {low} AND part_ref < {low + cls.block}"
                    )
                elif kind == 1:
                    sql = insert_sql(
                        cls.row(rng, next_id + i) for i in range(cls.block)
                    )
                    live.append(next_id)
                    next_id += cls.block
                else:
                    low = live.pop(rng.randrange(len(live)))
                    sql = (
                        f"DELETE FROM parts WHERE part_ref >= {low} "
                        f"AND part_ref < {low + cls.block}"
                    )
                txns.append([sql])
            stream_windows.append(txns)
        queries = [_standard_mix() for _window in range(windows)]
        return Stream(initial, [], stream_windows, queries)

    def build_pipeline(self) -> None:
        self.store = FileLogStore(self.source)
        self.capture = OpDeltaCapture(self.session, self.store, tables={"parts"})
        self.capture.attach()
        self.integrator = OpDeltaIntegrator(
            self.warehouse.database.internal_session(),
            views=[self.view] if self.view is not None else [],
        )

    def maintain(self) -> int:
        span = self.spans.span
        with span("core.store.drain"):
            groups = self.store.drain()
        with span("transport.ship"):
            self.shipper.ship_op_deltas(groups)
        with span("warehouse.apply"):
            report = self.integrator.integrate(groups)
        self.tally_apply(report)
        return sum(len(group.operations) for group in groups)

    def in_view(self, row: tuple) -> bool:
        return row[QUANTITY] > 500


class OpDeltaBatched(Scenario):
    name = "opdelta_batched"
    table_rows = 2_000
    reference_windows = 8
    #: 60% two-statement UPDATE, 25% INSERT, 15% INSERT+DELETE scratch, in
    #: this order in every window of every seed: how many conflict
    #: components a window folds into — what the columnar apply pays per —
    #: depends on the order, so only keys and values are seeded.
    pattern = "UUIUUSUUIUUIUSUUIUSI"
    view_spec = ("parts_catalog", None)

    @classmethod
    def generate(cls, rng, windows: int) -> Stream:
        initial = [part_row(rng, i, cls.suppliers) for i in range(cls.table_rows)]
        live = list(range(cls.table_rows))
        next_id = cls.table_rows
        stream_windows = []
        for _window in range(windows):
            txns = []
            for kind in cls.pattern:
                if kind == "U":
                    key = rng.choice(live)
                    txns.append([
                        f"UPDATE parts SET status = '{rng.choice(STATUSES[1:])}' "
                        f"WHERE part_id = {key}",
                        f"UPDATE parts SET price = "
                        f"{round(rng.uniform(0.5, 5000.0), 2)} "
                        f"WHERE part_id = {key}",
                    ])
                    continue
                # Inserted rows are 'new' and updates never assign 'new':
                # the analyzer can then prove every INSERT/UPDATE pair
                # commutes, so the conflict graph is one component per
                # transaction in every window of every seed (bar the rare
                # window that draws one key twice).
                row = part_row(rng, next_id, cls.suppliers)
                row = row[:STATUS] + (STATUSES[0],) + row[STATUS + 1:]
                next_id += 1
                if kind == "I":
                    live.append(row[PART_ID])
                    txns.append([insert_sql([row])])
                else:
                    txns.append([
                        insert_sql([row]),
                        f"DELETE FROM parts WHERE part_id = {row[PART_ID]}",
                    ])
            stream_windows.append(txns)
        queries = [_standard_mix() for _window in range(windows)]
        return Stream(initial, [], stream_windows, queries)

    def build_pipeline(self) -> None:
        columns = self.schema.column_names
        self.analyzer = OpDeltaAnalyzer(
            views=[self.view_definition],
            mirrored_tables={"parts"},
            key_columns={"parts": "part_id"},
            table_columns={"parts": columns},
            metrics=self.registry,
        )
        plans = ViewMaintenancePlanner(SchemaCatalog([self.schema])).plan_catalog(
            [self.view_definition]
        )
        self.store = FileLogStore(self.source)
        self.capture = OpDeltaCapture(
            self.session, self.store, tables={"parts"}, analyzer=self.analyzer
        )
        self.capture.attach()
        self.coalescer = Coalescer(
            analyzer=self.analyzer, clock=self.clock, metrics=self.registry
        )
        self.queue: PersistentQueue = PersistentQueue(
            self.clock, name="host-bench", metrics=self.registry
        )
        self.integrator = OpDeltaIntegrator(
            self.warehouse.database.internal_session(),
            views=[self.view],
            analyzer=self.analyzer,
            plans=plans,
        )

    def maintain(self) -> int:
        span = self.spans.span
        with span("core.store.drain"):
            groups = self.store.drain()
        with span("compaction.compact"):
            compacted, compaction = self.coalescer.compact_window(groups)
        with span("transport.queue"):
            enqueue_op_deltas(self.queue, compacted)
            window = self.queue.receive_window(limit=len(compacted) + 1)
        payloads = [payload for _delivery, payload in window]
        with span("analysis.conflict_graph"):
            graph = self.analyzer.conflict_graph(payloads)
        with span("warehouse.apply"):
            report = self.integrator.integrate_batched(
                payloads, graph, columnar=True
            )
        with span("transport.queue"):
            self.queue.ack_window(delivery for delivery, _payload in window)
        self.tally_apply(report)
        self.add("compaction.ops_in", compaction.ops_in)
        self.add("compaction.ops_out", compaction.ops_out)
        self.add("compaction.bytes_in", compaction.bytes_in)
        self.add("compaction.bytes_out", compaction.bytes_out)
        self.add("analysis.conflict.components", graph.component_count)
        self.components.extend(graph.components)
        return compaction.ops_in


class ValueDelta(Scenario):
    name = "value_delta"
    table_rows = 4_000
    txns_per_window = 6
    reference_windows = 10
    txn_rows = 100
    archive_mode = True

    @classmethod
    def generate(cls, rng, windows: int) -> Stream:
        initial = [part_row(rng, i, cls.suppliers) for i in range(cls.table_rows)]
        rows = cls.txn_rows
        low_id, next_id = 0, cls.table_rows
        stream_windows = []
        counter = 0
        for _window in range(windows):
            txns = []
            for _txn in range(cls.txns_per_window):
                kind = counter % 3
                counter += 1
                if kind == 0:
                    # A 100-row range among the newest 200 rows: either
                    # bound alone selects <= 5% of the table, so the
                    # planner takes the part_ref B-tree, never a scan.
                    low = next_id - rows - rng.randrange(rows)
                    sql = (
                        f"UPDATE parts SET status = '{rng.choice(STATUSES)}', "
                        f"quantity = {rng.randint(0, 999)} WHERE "
                        f"part_ref >= {low} AND part_ref < {low + rows}"
                    )
                elif kind == 1:
                    sql = insert_sql(
                        part_row(rng, next_id + i, cls.suppliers)
                        for i in range(rows)
                    )
                    next_id += rows
                else:
                    sql = (
                        f"DELETE FROM parts WHERE part_ref < {low_id + rows} "
                        f"AND part_ref >= {low_id}"
                    )
                    low_id += rows
                txns.append([sql])
            stream_windows.append(txns)
        queries = [_standard_mix() for _window in range(windows)]
        return Stream(initial, [], stream_windows, queries)

    def index_source(self, table) -> None:
        table.create_index("ix_parts_part_ref", "part_ref", kind="btree")

    def build_pipeline(self) -> None:
        source = self.source
        self.triggers = TriggerExtractor(source, "parts")
        self.triggers.install()
        self.timestamps = TimestampExtractor(source, "parts")
        self.log = LogExtractor(source, tables={"parts"})
        # Discard the initial load's archived segments and take the base
        # snapshot, so window 0 extracts window 0's changes only.
        self.log.extract()
        self.snapshot = take_snapshot(source, "parts")
        self.since = self.clock.now
        self.integrator = ValueDeltaIntegrator(
            self.warehouse.database.internal_session()
        )
        self.checks: dict[str, Any] = {}

    def maintain(self) -> int:
        span = self.spans.span
        source = self.source
        since, self.since = self.since, self.clock.now
        with span("extraction.trigger.drain"):
            triggered = self.triggers.drain_to_batch()
        with span("extraction.timestamp"):
            stamped = self.timestamps.extract_deltas(since)
        with span("extraction.logscan"):
            scanned = self.log.extract()
        with span("engine.snapshot"):
            snapshot = take_snapshot(source, "parts")
        with span("extraction.snapshot_diff"):
            differential = diff_snapshots(source, self.snapshot, snapshot)
        with span("transport.ship"):
            self.shipper.ship_value_deltas(triggered)
        with span("warehouse.value_apply"):
            report = self.integrator.integrate(triggered)
        log_batch = scanned.batches.get("parts")
        self.add("warehouse.value_apply.statements", report.statements_issued)
        self.add("extraction.trigger.drain.rows_emitted", len(triggered))
        self.add("extraction.timestamp.rows_emitted", len(stamped))
        self.add("extraction.logscan.rows_emitted", scanned.changes_decoded)
        self.add("extraction.snapshot_diff.rows_emitted", len(differential))
        self.checks = {
            "since": since,
            "previous": self.snapshot.rows,
            "stamped": stamped,
            "log": log_batch,
            "differential": differential,
        }
        self.snapshot = snapshot
        return len(triggered)

    def verify_extraction(self, source_rows: list[tuple]) -> list[str]:
        """Every §3 method must account for the window's source changes."""
        checks = self.checks
        misses = []
        current = sorted(source_rows)
        for method in ("differential", "log"):
            batch = checks[method]
            try:
                replayed = (
                    checks["previous"] if batch is None
                    else apply_batch_to_rows(batch, checks["previous"], PART_ID)
                )
            except ReproError as exc:
                misses.append(f"{method} batch does not replay: {exc}")
                continue
            if sorted(replayed) != current:
                misses.append(f"{method} batch does not reproduce the source")
        # Timestamp extraction sees exactly the live rows modified in the
        # window — and, by construction, none of the deletes (§3.1.1).
        modified = sorted(
            row for row in source_rows
            if row[TIMESTAMP] is not None and row[TIMESTAMP] > checks["since"]
        )
        if sorted(r.after for r in checks["stamped"].records) != modified:
            misses.append("timestamp extraction != live rows modified in window")
        return misses


class OlapMostly(OpDeltaScan):
    name = "olap_mostly"
    table_rows = 5_000
    suppliers = 60
    reference_windows = 10
    view_spec = None
    queries_catalog = True

    @classmethod
    def generate(cls, rng, windows: int) -> Stream:
        initial = [part_row(rng, i, cls.suppliers) for i in range(cls.table_rows)]
        regions = ("NW", "SW", "NE", "SE", "EU", "APAC")
        supplier_rows = [
            (i, f"Supplier {i:03d}", regions[i % len(regions)])
            for i in range(cls.suppliers)
        ]
        live = list(range(cls.table_rows))
        next_id = cls.table_rows
        stream_windows, queries = [], []
        for _window in range(windows):
            # Six updates, one insert, one delete: the mirror keeps its size.
            kinds = list("UUUUUUID")
            rng.shuffle(kinds)
            txns = []
            for kind in kinds:
                if kind == "U":
                    key = rng.choice(live)
                    assignment = (
                        f"quantity = {rng.randint(0, 999)}"
                        if rng.random() < 0.5
                        else f"status = '{rng.choice(STATUSES)}'"
                    )
                    sql = f"UPDATE parts SET {assignment} WHERE part_id = {key}"
                elif kind == "I":
                    sql = insert_sql([part_row(rng, next_id, cls.suppliers)])
                    live.append(next_id)
                    next_id += 1
                else:
                    key = live.pop(rng.randrange(len(live)))
                    sql = f"DELETE FROM parts WHERE part_id = {key}"
                txns.append([sql])
            stream_windows.append(txns)
            mix = _standard_mix(dimension=True)
            mix.append((
                "ordered",
                "SELECT part_id, price FROM parts WHERE status = 'active' "
                "ORDER BY price DESC",
                "active",
            ))
            # Two point lookups keep the per-query median inside one query
            # class (7 queries: the 4th of the sorted mix is a scan query).
            for _lookup in range(2):
                key = rng.choice(live)
                mix.append(
                    ("point", f"SELECT * FROM parts WHERE part_id = {key}", key)
                )
            queries.append(mix)
        return Stream(initial, supplier_rows, stream_windows, queries)


SCENARIOS: dict[str, type[Scenario]] = {
    scenario.name: scenario
    for scenario in (OpDeltaScan, OpDeltaBatched, ValueDelta, OlapMostly)
}
