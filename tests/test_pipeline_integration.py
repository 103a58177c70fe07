"""Lifecycle lineage threaded through the real capture/transport/apply stack."""

import pytest

from repro.analysis import OpDeltaAnalyzer
from repro.compaction import Coalescer
from repro.core.capture import OpDeltaCapture
from repro.core.stores import FileLogStore
from repro.engine import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INTEGER, char
from repro.errors import SemanticError
from repro.obs.pipeline import (
    LifecycleKind,
    PipelineAuditor,
    PipelineRecorder,
    observe_pipeline,
)
from repro.semantics import SchemaCatalog, SemanticChecker
from repro.transport.network import NetworkModel
from repro.transport.queue import PersistentQueue
from repro.transport.shipper import FileShipper, enqueue_op_deltas
from repro.warehouse import OpDeltaIntegrator, Warehouse

from .pruning import prune_window

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

SIDE_SCHEMA = TableSchema(
    "u",
    [Column("id", INTEGER, nullable=False), Column("x", INTEGER)],
    primary_key="id",
)

ANALYZER = OpDeltaAnalyzer(
    mirrored_tables={"t"},
    key_columns={"t": "id"},
    table_columns={"t": SCHEMA.column_names, "u": SIDE_SCHEMA.column_names},
)


def seeded_source(rows=6):
    source = Database("lin-source")
    source.create_table(SCHEMA)
    source.create_table(SIDE_SCHEMA)
    session = source.internal_session()
    for i in range(1, rows + 1):
        session.execute(
            f"INSERT INTO t (id, a, b, c) VALUES ({i}, {i}, {i % 2}, 'r')"
        )
    initial = [v for _r, v in source.table("t").scan()]
    return source, session, initial


def loaded_warehouse(name, clock, initial):
    warehouse = Warehouse(name, clock=clock)
    warehouse.create_mirror(SCHEMA)
    warehouse.initial_load_rows("t", initial)
    return warehouse


class TestCaptureLineage:
    def test_ops_are_stamped_with_source_and_sequence(self):
        source, session, _ = seeded_source()
        store = FileLogStore(source)
        capture = OpDeltaCapture(session, store, tables={"t"}, source="src-a")
        capture.attach()
        session.execute("UPDATE t SET a = 0 WHERE id = 1")
        session.execute("DELETE FROM t WHERE id = 2")
        capture.detach()
        [group_a, group_b] = store.drain()
        assert group_a.operations[0].lineage_id == "src-a:1"
        assert group_b.operations[0].lineage_id == "src-a:2"

    def test_source_defaults_to_the_database_name(self):
        source, session, _ = seeded_source()
        capture = OpDeltaCapture(session, FileLogStore(source), tables={"t"})
        assert capture.source == "lin-source"

    def test_capture_records_lineage_and_commit_stamps(self):
        source, session, _ = seeded_source()
        recorder = PipelineRecorder(clock=source.clock)
        with observe_pipeline(recorder):
            capture = OpDeltaCapture(
                session, FileLogStore(source), tables={"t"}, source="src"
            )
            capture.attach()
            session.begin()
            session.execute("UPDATE t SET a = 0 WHERE id = 1")
            session.execute("UPDATE t SET a = 1 WHERE id = 2")
            session.commit()
            capture.detach()
        assert recorder.log.total(LifecycleKind.CAPTURED) == 2
        assert set(recorder.lineage) == {"src:1", "src:2"}
        for record in recorder.lineage.values():
            assert record.committed_at is not None
        watermark = recorder.sources["src"]
        assert watermark.high_seq == 2
        assert watermark.in_flight == 2  # captured, nothing settled yet

    def test_aborted_transaction_settles_as_pruned(self):
        source, session, _ = seeded_source()
        recorder = PipelineRecorder(clock=source.clock)
        with observe_pipeline(recorder):
            capture = OpDeltaCapture(
                session, FileLogStore(source), tables={"t"}, source="src"
            )
            capture.attach()
            session.begin()
            session.execute("UPDATE t SET a = 0 WHERE id = 1")
            session.rollback()
            capture.detach()
        [record] = recorder.lineage.values()
        assert record.terminal == "pruned"
        assert record.pruned_stage == "aborted"
        assert PipelineAuditor(recorder).audit().verdict == "CLEAN"

    def test_a_statement_rejected_at_capture_never_becomes_an_op(self):
        source, session, _ = seeded_source()
        recorder = PipelineRecorder(clock=source.clock)
        with observe_pipeline(recorder):
            capture = OpDeltaCapture(
                session,
                FileLogStore(source),
                tables={"t"},
                checker=SemanticChecker(SchemaCatalog.from_database(source)),
                source="src",
            )
            capture.attach()
            with pytest.raises(SemanticError) as raised:
                session.execute("UPDATE t SET missing = 0 WHERE id = 1")
            capture.detach()
        assert recorder.statements_rejected_at_capture == 1
        [event] = [e for e in recorder.log if e.kind is LifecycleKind.REJECTED]
        assert event.correlation_id == "src:<rejected>"
        codes = [d.code for d in raised.value.diagnostics]
        assert codes and event.detail == "; ".join(codes)
        assert all(code.startswith("SEM") for code in codes)
        # It never became an op, so nothing is owed: conservation closes.
        assert recorder.lineage == {}
        audit = PipelineAuditor(recorder).audit()
        assert audit.conservation_holds


class TestTransportLineage:
    def test_shipping_stamps_arrival_and_prunes_irrelevant_ops(self):
        source, session, _ = seeded_source()
        recorder = PipelineRecorder(clock=source.clock)
        with observe_pipeline(recorder):
            capture = OpDeltaCapture(
                session,
                FileLogStore(source),
                tables={"t", "u"},
                source="src",
            )
            capture.attach()
            session.execute("UPDATE t SET a = 9 WHERE id = 1")
            session.execute("INSERT INTO u (id, x) VALUES (1, 1)")
            capture.detach()
            groups = capture.store.drain()
            shipper = FileShipper(NetworkModel(source.clock))
            shipper.ship_op_deltas(prune_window(ANALYZER, groups))
        relevant = recorder.lineage["src:1"]
        pruned = recorder.lineage["src:2"]
        assert relevant.shipped_at is not None
        assert relevant.shipped_at > relevant.captured_at
        assert pruned.terminal == "pruned"
        assert pruned.pruned_stage == "transport"
        assert recorder.lags["capture_to_ship"].count == 1

    def test_queue_round_trip_with_redelivery(self):
        source, session, _ = seeded_source()
        recorder = PipelineRecorder(clock=source.clock)
        with observe_pipeline(recorder):
            capture = OpDeltaCapture(
                session, FileLogStore(source), tables={"t"}, source="src"
            )
            capture.attach()
            session.execute("UPDATE t SET a = 9 WHERE id = 1")
            capture.detach()
            groups = capture.store.drain()
            queue = PersistentQueue(source.clock, name="lin")
            enqueue_op_deltas(queue, groups)
            delivery_id, _payload = queue.receive()
            queue.nack(delivery_id)
            delivery_id, _payload = queue.receive()
            queue.ack(delivery_id)
        record = recorder.lineage["src:1"]
        assert record.enqueued_at is not None
        assert record.redeliveries == 1
        assert record.acked_at is not None
        [event] = [
            e for e in recorder.log if e.kind is LifecycleKind.REDELIVERED
        ]
        assert event.detail == "attempt=2"

    def test_recover_counts_as_redelivery(self):
        source, session, _ = seeded_source()
        recorder = PipelineRecorder(clock=source.clock)
        with observe_pipeline(recorder):
            capture = OpDeltaCapture(
                session, FileLogStore(source), tables={"t"}, source="src"
            )
            capture.attach()
            session.execute("UPDATE t SET a = 9 WHERE id = 1")
            capture.detach()
            queue = PersistentQueue(source.clock, name="lin")
            enqueue_op_deltas(queue, capture.store.drain())
            queue.receive()  # consumer crashes holding the message
            assert queue.recover() == 1
            delivery_id, _payload = queue.receive()
            queue.ack(delivery_id)
        assert recorder.lineage["src:1"].redeliveries == 1


class TestApplyLineage:
    def test_full_pipeline_conserves_and_audits_clean(self):
        source, session, initial = seeded_source()
        recorder = PipelineRecorder(clock=source.clock)
        with observe_pipeline(recorder):
            capture = OpDeltaCapture(
                session,
                FileLogStore(source),
                tables={"t"},
                source="src",
                analyzer=ANALYZER,
            )
            capture.attach()
            session.begin()
            session.execute("UPDATE t SET a = a + 1 WHERE b = 0")
            session.execute("UPDATE t SET a = a + 2 WHERE b = 0")
            session.commit()
            session.begin()
            session.execute("INSERT INTO t (id, a, b, c) VALUES (950, 9, 9, 'x')")
            session.execute("DELETE FROM t WHERE id = 950")
            session.commit()
            capture.detach()
            groups = capture.store.drain()
            compacted, report = Coalescer(
                analyzer=ANALYZER, clock=source.clock
            ).compact_window(groups)
            warehouse = loaded_warehouse("lin-wh", source.clock, initial)
            integrator = OpDeltaIntegrator(
                warehouse.database.internal_session(), analyzer=ANALYZER
            )
            queue = PersistentQueue(source.clock, name="lin")
            enqueue_op_deltas(queue, compacted)
            window = queue.receive_window(limit=len(compacted) + 1)
            integrator.integrate_batched([p for _id, p in window])
            queue.ack_window(d for d, _p in window)
        audit = PipelineAuditor(recorder).audit()
        assert audit.verdict == "CLEAN"
        assert audit.conservation_holds
        conservation = audit.conservation
        assert conservation["captured"] == 4
        # One UPDATE folded into the other; the INSERT/DELETE annihilated.
        assert conservation["absorbed"] == 3
        assert conservation["applied"] == 1
        assert len(report.absorbed) == 3
        rules = {edge.rule for edge in report.absorbed}
        assert rules == {"fold_updates", "annihilate_pair"}

    def test_absorbed_edges_name_their_surviving_absorber(self):
        source, session, initial = seeded_source()
        recorder = PipelineRecorder(clock=source.clock)
        with observe_pipeline(recorder):
            capture = OpDeltaCapture(
                session, FileLogStore(source), tables={"t"}, source="src"
            )
            capture.attach()
            session.begin()
            session.execute("UPDATE t SET a = 1 WHERE id = 1")
            session.execute("UPDATE t SET b = 1 WHERE id = 1")
            session.commit()
            capture.detach()
            groups = capture.store.drain()
            Coalescer(analyzer=ANALYZER, clock=source.clock).compact_window(
                groups
            )
        # The merged statement keeps the first op's identity; the second
        # folds into it.
        folded = recorder.lineage["src:2"]
        assert folded.terminal == "absorbed"
        assert folded.absorbed_rule == "fold_updates"
        assert folded.absorbed_by == "src:1"
        assert recorder.lineage["src:1"].terminal is None  # still shippable

    def test_lineage_is_optional_nothing_records_without_a_recorder(self):
        source, session, initial = seeded_source()
        capture = OpDeltaCapture(
            session, FileLogStore(source), tables={"t"}, source="src"
        )
        capture.attach()
        session.execute("UPDATE t SET a = 9 WHERE id = 1")
        capture.detach()
        groups = capture.store.drain()
        warehouse = loaded_warehouse("lin-wh2", source.clock, initial)
        integrator = OpDeltaIntegrator(warehouse.database.internal_session())
        integrator.integrate(groups)
        rows = {v[0]: v for _r, v in warehouse.database.table("t").scan()}
        assert rows[1][1] == 9
