"""End-to-end tests for the compacted shipping + batched apply pipeline."""

import pytest

from repro.analysis import OpDeltaAnalyzer
from repro.clock import VirtualClock
from repro.compaction import Coalescer
from repro.core.capture import OpDeltaCapture
from repro.core.selfmaint import ViewDefinition
from repro.core.stores import FileLogStore
from repro.engine import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INTEGER, char
from repro.errors import TransportError, WarehouseError
from repro.transport.network import NetworkModel
from repro.transport.queue import PersistentQueue
from repro.transport.shipper import FileShipper, enqueue_op_deltas
from repro.warehouse import OpDeltaIntegrator, Warehouse, run_conflict_schedule

SCHEMA = TableSchema(
    "t",
    [
        Column("id", INTEGER, nullable=False),
        Column("a", INTEGER),
        Column("b", INTEGER),
        Column("c", char(8)),
    ],
    primary_key="id",
)

ANALYZER = OpDeltaAnalyzer(
    mirrored_tables={"t"},
    key_columns={"t": "id"},
    table_columns={"t": SCHEMA.column_names},
)


def captured_window(rows=8):
    """A source database plus a captured multi-transaction window."""
    source = Database("pl-source")
    source.create_table(SCHEMA)
    session = source.internal_session()
    for i in range(1, rows + 1):
        session.execute(
            f"INSERT INTO t (id, a, b, c) VALUES ({i}, {i}, {i % 2}, 'r')"
        )
    initial = [v for _r, v in source.table("t").scan()]
    store = FileLogStore(source)
    capture = OpDeltaCapture(session, store, tables={"t"}, analyzer=ANALYZER)
    capture.attach()
    session.begin()
    session.execute("UPDATE t SET a = a + 1 WHERE b = 0")
    session.execute("UPDATE t SET a = a + 2 WHERE b = 0")
    session.execute("INSERT INTO t (id, a, b, c) VALUES (900, 1, 2, 'n')")
    session.execute("INSERT INTO t (id, a, b, c) VALUES (901, 1, 2, 'n')")
    session.commit()
    session.begin()
    session.execute("INSERT INTO t (id, a, b, c) VALUES (950, 9, 9, 'tmp')")
    session.execute("DELETE FROM t WHERE id = 950")
    session.execute("UPDATE t SET c = 'upd' WHERE b = 1")
    session.commit()
    capture.detach()
    return source, initial, store.drain()


def loaded_warehouse(name, clock, initial):
    warehouse = Warehouse(name, clock=clock)
    warehouse.create_mirror(SCHEMA)
    warehouse.initial_load_rows("t", initial)
    return warehouse


def state(warehouse):
    return sorted(v for _r, v in warehouse.database.table("t").scan())


class TestBatchedIntegration:
    def test_batched_apply_matches_serial(self):
        source, initial, groups = captured_window()
        compacted, report = Coalescer(analyzer=ANALYZER).compact_window(groups)
        assert report.ops_out < report.ops_in

        wh_serial = loaded_warehouse("pl-serial", source.clock, initial)
        wh_batched = loaded_warehouse("pl-batched", source.clock, initial)
        OpDeltaIntegrator(
            wh_serial.database.internal_session(), analyzer=ANALYZER
        ).integrate(groups)
        batched = OpDeltaIntegrator(
            wh_batched.database.internal_session(), analyzer=ANALYZER
        ).integrate_batched(compacted)
        assert state(wh_serial) == state(wh_batched)
        assert batched.mode == "op-delta-batched"
        assert batched.components == len(batched.per_component_ms) > 0
        assert batched.transactions == len(compacted)

    def test_batched_needs_graph_or_analyzer(self):
        source, initial, groups = captured_window()
        warehouse = loaded_warehouse("pl-nograph", source.clock, initial)
        integrator = OpDeltaIntegrator(warehouse.database.internal_session())
        with pytest.raises(WarehouseError, match="conflict graph"):
            integrator.integrate_batched(groups)

    def test_batched_rejects_uncovered_graph(self):
        source, initial, groups = captured_window()
        graph = ANALYZER.conflict_graph(groups[:1])
        warehouse = loaded_warehouse("pl-uncovered", source.clock, initial)
        integrator = OpDeltaIntegrator(
            warehouse.database.internal_session(), analyzer=ANALYZER
        )
        with pytest.raises(WarehouseError, match="does not cover"):
            integrator.integrate_batched(groups, graph=graph)

    def test_empty_window_is_a_noop(self):
        source, initial, _groups = captured_window()
        warehouse = loaded_warehouse("pl-empty", source.clock, initial)
        integrator = OpDeltaIntegrator(warehouse.database.internal_session())
        report = integrator.integrate_batched([])
        assert report.components == 0 and report.transactions == 0

    def test_rule_memo_counts_lookups_with_views(self):
        source, initial, groups = captured_window()
        view_def = ViewDefinition(
            name="t_catalog",
            base_table="t",
            columns=SCHEMA.column_names,
            predicate=None,
            key_column="id",
            base_columns=SCHEMA.column_names,
        )
        warehouse = loaded_warehouse("pl-memo", source.clock, initial)
        view = warehouse.define_view(view_def, SCHEMA)
        txn = warehouse.database.begin()
        view.initialize(initial, txn)
        warehouse.database.commit(txn)
        # The analyzer that judges the window must know the view it maintains.
        analyzer = OpDeltaAnalyzer(
            views=[view_def],
            mirrored_tables={"t"},
            key_columns={"t": "id"},
            table_columns={"t": SCHEMA.column_names},
        )
        integrator = OpDeltaIntegrator(
            warehouse.database.internal_session(),
            views=[view],
            analyzer=analyzer,
        )
        report = integrator.integrate_batched(groups)
        # One real lookup per distinct (table, kind, view); the rest hit.
        assert report.rule_lookups > 0
        distinct = report.rule_lookups - report.rule_cache_hits
        assert 0 < distinct < report.rule_lookups


class TestBatchedSchedule:
    def test_components_are_indivisible_lane_units(self):
        report = run_conflict_schedule([[30.0], [20.0], [10.0]], workers=2)
        assert report.components == 3
        assert report.transactions == 3
        assert report.serial_ms == 60.0
        assert report.parallel_ms == 30.0  # LPT: [30] vs [20, 10]

    def test_empty_schedule(self):
        report = run_conflict_schedule([], workers=2)
        assert report.parallel_ms == 0.0


class TestTransportHooks:
    def test_shipper_compactor_reduces_payload(self):
        source, _initial, groups = captured_window()
        shipper = FileShipper(NetworkModel(source.clock))
        coalescer = Coalescer(analyzer=ANALYZER)
        shipper.ship_op_deltas(groups)
        compacted_window, _report = coalescer.compact_window(groups)
        shipper.ship_op_deltas(compacted_window)
        verbatim, compacted = shipper._network.transfers[-2:]
        assert compacted.payload_bytes < verbatim.payload_bytes

    def test_enqueue_with_compactor_stores_compacted_window(self):
        source, _initial, groups = captured_window()
        queue = PersistentQueue(source.clock, name="pl-queue")
        compacted, _report = Coalescer(analyzer=ANALYZER).compact_window(groups)
        count = enqueue_op_deltas(queue, compacted)
        assert count == len(queue)
        stored_ops = 0
        while (received := queue.receive()) is not None:
            stored_ops += len(received[1].operations)
            queue.ack(received[0])
        assert stored_ops < sum(len(g.operations) for g in groups)


class TestQueueWindows:
    def make_queue(self):
        queue = PersistentQueue(VirtualClock(), name="win-queue")
        for i in range(5):
            queue.enqueue(f"m{i}", 10)
        return queue

    def test_receive_window_drains_up_to_limit(self):
        queue = self.make_queue()
        window = queue.receive_window(limit=3)
        assert [payload for _id, payload in window] == ["m0", "m1", "m2"]
        assert len(queue) == 2 and queue.in_flight == 3

    def test_receive_window_stops_at_empty(self):
        queue = self.make_queue()
        window = queue.receive_window(limit=99)
        assert len(window) == 5 and len(queue) == 0

    def test_ack_window_settles_all(self):
        queue = self.make_queue()
        window = queue.receive_window(limit=5)
        settled = queue.ack_window(delivery_id for delivery_id, _ in window)
        assert settled == 5 and queue.in_flight == 0
        assert queue.acknowledged == 5

    def test_unacked_window_redelivered_after_crash(self):
        queue = self.make_queue()
        queue.receive_window(limit=3)
        assert queue.recover() == 3
        window = queue.receive_window(limit=5)
        assert [payload for _id, payload in window] == [
            "m0", "m1", "m2", "m3", "m4",
        ]

    def test_window_size_validated(self):
        queue = self.make_queue()
        with pytest.raises(TransportError, match="positive"):
            queue.receive_window(limit=0)

    def test_ack_window_rejects_unknown_delivery(self):
        queue = self.make_queue()
        window = queue.receive_window(limit=2)
        with pytest.raises(TransportError):
            queue.ack_window([window[0][0], 999])
        # The first id in the window was settled before the failure.
        assert queue.acknowledged == 1
