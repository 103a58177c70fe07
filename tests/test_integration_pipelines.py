"""End-to-end integration tests: source → extract → transport → integrate.

One test per extraction method, each driving the full pipeline the paper's
reference architecture (Figure 1) describes, and asserting that the
warehouse mirror converges to the source's logical state.
"""

import pytest

from repro.core import FileLogStore, OpDeltaCapture
from repro.engine import Database, clone_schemas, recover_from_archive
from repro.engine.utilities import ascii_load, export_table
from repro.extraction import (
    LogExtractor,
    TimestampExtractor,
    TriggerExtractor,
    diff_snapshots,
)
from repro.engine.snapshots import take_snapshot
from repro.transport import FileShipper, NetworkModel, PersistentQueue
from repro.warehouse import OpDeltaIntegrator, ValueDeltaIntegrator, Warehouse
from repro.workloads import OltpWorkload, parts_schema, strip_timestamp


def build_source(archive=False, rows=400):
    source = Database("pipeline-src", archive_mode=archive)
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(rows)
    return source, workload


def build_warehouse(source):
    warehouse = Warehouse(clock=source.clock)
    warehouse.create_mirror(parts_schema())
    warehouse.initial_load_rows(
        "parts", (v for _r, v in source.table("parts").scan())
    )
    return warehouse


def logical(database):
    return strip_timestamp(
        parts_schema(), (v for _r, v in database.table("parts").scan())
    )


def churn(workload):
    workload.run_update(40, assignment="status = 'revised'")
    workload.run_insert(25)
    workload.run_delete(15, top_up=False)


class TestTimestampPipeline:
    def test_file_output_loader_path(self):
        """Timestamp extraction cannot see deletes — the mirror diverges
        exactly by the deleted rows (the documented §3.1.1 limitation)."""
        source, workload = build_source()
        warehouse = build_warehouse(source)
        cutoff = source.clock.timestamp()
        workload.run_update(40)
        workload.run_insert(25)

        batch = TimestampExtractor(source, "parts").extract_deltas(cutoff)
        network = NetworkModel(source.clock)
        FileShipper(network).ship_value_deltas(batch)
        ValueDeltaIntegrator(warehouse.database.internal_session()).integrate(batch)
        assert logical(warehouse.database) == logical(source)

    def test_deletes_leak_through(self):
        source, workload = build_source()
        warehouse = build_warehouse(source)
        cutoff = source.clock.timestamp()
        workload.run_delete(15, top_up=False)
        batch = TimestampExtractor(source, "parts").extract_deltas(cutoff)
        ValueDeltaIntegrator(warehouse.database.internal_session()).integrate(batch)
        # The deleted rows are still in the warehouse: divergence by 15.
        assert len(logical(warehouse.database)) - len(logical(source)) == 15


class TestSnapshotPipeline:
    def test_differential_snapshot_path(self):
        source, workload = build_source()
        warehouse = build_warehouse(source)
        old = take_snapshot(source, "parts")
        churn(workload)
        new = take_snapshot(source, "parts")
        batch = diff_snapshots(source, old, new, "sort_merge")
        network = NetworkModel(source.clock)
        FileShipper(network).ship_value_deltas(batch)
        ValueDeltaIntegrator(warehouse.database.internal_session()).integrate(batch)
        assert logical(warehouse.database) == logical(source)


class TestTriggerPipeline:
    def test_trigger_export_import_path(self):
        source, workload = build_source()
        warehouse = build_warehouse(source)
        extractor = TriggerExtractor(source, "parts")
        extractor.install()
        churn(workload)
        # Table output requires the Export/Import extra step (§3).
        dump = export_table(source, extractor.delta_table_name)
        staged = Database("staging", clock=source.clock)
        from repro.engine.utilities import import_dump

        import_dump(staged, dump, table_name="parts_cdc")
        rows = [v for _r, v in staged.table("parts_cdc").scan()]
        from repro.extraction import delta_rows_to_batch

        batch = delta_rows_to_batch(parts_schema(), rows)
        ValueDeltaIntegrator(warehouse.database.internal_session()).integrate(batch)
        assert logical(warehouse.database) == logical(source)

    def test_trigger_ascii_loader_path(self):
        source, workload = build_source()
        extractor = TriggerExtractor(source, "parts")
        extractor.install()
        churn(workload)
        dump = extractor.ascii_dump_delta_table()
        staged = Database("staging", clock=source.clock)
        from repro.extraction.writers import delta_table_schema

        staged.create_table(delta_table_schema(parts_schema(), "parts_cdc"))
        assert ascii_load(staged, "parts_cdc", dump) == dump.num_records


class TestLogPipeline:
    def test_log_shipping_recreates_standby(self):
        """§3.1.4: the natural consumer is full re-creation (hot standby)."""
        source, workload = build_source(archive=True)
        churn(workload)
        source.checkpoint()
        standby = Database("standby", clock=source.clock)
        clone_schemas(source, standby)
        network = NetworkModel(source.clock)
        segments = source.log.drain_archive()
        FileShipper(network).ship_log_segments(segments)
        recover_from_archive(standby, segments)
        # Log shipping preserves even the timestamps: exact state.
        assert sorted(v for _r, v in standby.table("parts").scan()) == sorted(
            v for _r, v in source.table("parts").scan()
        )

    def test_log_value_delta_integration_path(self):
        source, workload = build_source(archive=True)
        warehouse = build_warehouse(source)
        source.checkpoint()
        source.log.drain_archive()  # discard load history
        churn(workload)
        outcome = LogExtractor(source, tables={"parts"}).extract()
        ValueDeltaIntegrator(warehouse.database.internal_session()).integrate(
            outcome.batches["parts"]
        )
        assert logical(warehouse.database) == logical(source)


class TestOpDeltaPipeline:
    def test_queue_transported_op_deltas(self):
        source, workload = build_source()
        warehouse = build_warehouse(source)
        store = FileLogStore(source)
        OpDeltaCapture(workload.session, store, tables={"parts"}).attach()
        churn(workload)

        queue: PersistentQueue = PersistentQueue(source.clock)
        from repro.transport import enqueue_op_deltas

        assert enqueue_op_deltas(queue, store.drain()) == 3
        integrator = OpDeltaIntegrator(warehouse.database.internal_session())
        while (message := queue.receive()) is not None:
            delivery, group = message
            integrator.integrate([group])
            queue.ack(delivery)
        assert logical(warehouse.database) == logical(source)

    def test_consumer_crash_and_redelivery(self):
        source, workload = build_source()
        warehouse = build_warehouse(source)
        store = FileLogStore(source)
        OpDeltaCapture(workload.session, store, tables={"parts"}).attach()
        workload.run_update(20)

        queue: PersistentQueue = PersistentQueue(source.clock)
        from repro.transport import enqueue_op_deltas

        enqueue_op_deltas(queue, store.drain())
        # Consumer crashes after receive but before apply+ack.
        queue.receive()
        assert queue.recover() == 1
        integrator = OpDeltaIntegrator(warehouse.database.internal_session())
        delivery, group = queue.receive()
        integrator.integrate([group])
        queue.ack(delivery)
        assert logical(warehouse.database) == logical(source)


class TestCrossMethodAgreement:
    def test_trigger_and_log_extract_identical_deltas(self):
        source, workload = build_source(archive=True)
        source.checkpoint()
        source.log.drain_archive()
        triggers = TriggerExtractor(source, "parts")
        triggers.install()
        churn(workload)
        trigger_batch = triggers.drain_to_batch()
        log_batch = LogExtractor(source, tables={"parts"}).extract().batches["parts"]
        # The two methods must agree on the logical change stream,
        # except that the log also carries the triggers' own CDC rows
        # (filtered here by table).
        assert trigger_batch.counts() == log_batch.counts()
        assert trigger_batch.keys() == log_batch.keys()
