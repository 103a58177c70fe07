"""Tests for the transport layer: network model, queue, shipper."""

import pytest

from repro.clock import VirtualClock
from repro.engine.costs import DEFAULT_COST_MODEL
from repro.errors import TransportError
from repro.transport import FileShipper, NetworkModel, PersistentQueue


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def network(clock):
    return NetworkModel(clock)


class TestNetworkModel:
    def test_transfer_charges_latency_plus_payload(self, network, clock):
        elapsed = network.transfer(1_000_000, "big")
        assert elapsed > network.transfer(10, "small")
        assert clock.now > 0

    def test_transfer_records_kept(self, network):
        network.transfer(100, "a")
        network.transfer(200, "b")
        assert sum(t.payload_bytes for t in network.transfers) == 300
        assert [t.description for t in network.transfers] == ["a", "b"]

    def test_negative_payload_rejected(self, network):
        with pytest.raises(ValueError):
            network.transfer(-1)

    def test_round_trip(self, network, clock):
        # Every transfer pays one LAN round trip, an empty one nothing else.
        assert network.transfer(0, "ack") == DEFAULT_COST_MODEL.lan_round_trip
        assert clock.now == DEFAULT_COST_MODEL.lan_round_trip


class TestPersistentQueue:
    def test_fifo_order(self, clock):
        queue: PersistentQueue[str] = PersistentQueue(clock)
        queue.enqueue("first", 10)
        queue.enqueue("second", 10)
        delivery, payload = queue.receive()
        assert payload == "first"
        queue.ack(delivery)
        _delivery, payload = queue.receive()
        assert payload == "second"

    def test_ack_settles_message(self, clock):
        queue: PersistentQueue[str] = PersistentQueue(clock)
        queue.enqueue("m", 10)
        delivery, _payload = queue.receive()
        queue.ack(delivery)
        assert queue.receive() is None
        assert queue.acknowledged == 1

    def test_nack_requeues_at_front(self, clock):
        queue: PersistentQueue[str] = PersistentQueue(clock)
        queue.enqueue("a", 10)
        queue.enqueue("b", 10)
        delivery, payload = queue.receive()
        queue.nack(delivery)
        _delivery2, payload2 = queue.receive()
        assert payload == payload2 == "a"

    def test_consumer_crash_redelivers_in_flight(self, clock):
        queue: PersistentQueue[str] = PersistentQueue(clock)
        for name in ("a", "b", "c"):
            queue.enqueue(name, 10)
        queue.receive()
        queue.receive()
        assert queue.in_flight == 2
        assert queue.recover() == 2
        # At-least-once: everything is deliverable again, order restored.
        payloads = []
        while (message := queue.receive()) is not None:
            payloads.append(message[1])
            queue.ack(message[0])
        assert payloads == ["a", "b", "c"]

    def test_double_ack_rejected(self, clock):
        queue: PersistentQueue[str] = PersistentQueue(clock)
        queue.enqueue("m", 10)
        delivery, _payload = queue.receive()
        queue.ack(delivery)
        with pytest.raises(TransportError):
            queue.ack(delivery)

    def test_enqueue_charges_durability(self, clock):
        queue: PersistentQueue[str] = PersistentQueue(clock)
        before = clock.now
        queue.enqueue("m", 1_000)
        assert clock.now > before

    def test_receive_empty(self, clock):
        queue: PersistentQueue[str] = PersistentQueue(clock)
        assert queue.receive() is None

    def test_negative_size_rejected(self, clock):
        queue: PersistentQueue[str] = PersistentQueue(clock)
        with pytest.raises(TransportError):
            queue.enqueue("m", -5)


class TestFileShipper:
    def test_ships_every_artifact_kind(self, clock, network):
        from repro.core import FileLogStore, OpDeltaCapture
        from repro.engine import Database
        from repro.extraction import LogExtractor, TriggerExtractor
        from repro.workloads import OltpWorkload

        database = Database("ship-src", clock=clock, archive_mode=True)
        workload = OltpWorkload(database)
        workload.create_table()
        workload.populate(50)

        store = FileLogStore(database)
        OpDeltaCapture(workload.session, store, tables={"parts"}).attach()
        triggers = TriggerExtractor(database, "parts")
        triggers.install()
        workload.run_update(10)

        shipper = FileShipper(network)
        assert shipper.ship_value_deltas(triggers.drain_to_batch()) > 0
        assert shipper.ship_op_deltas(store.drain()) > 0
        outcome = LogExtractor(database, tables={"parts"}).extract()
        assert shipper.ship_log_segments(outcome.segments) > 0
        assert len(network.transfers) == 3

    def test_op_delta_payload_far_smaller_than_value_delta(self, clock, network):
        """§4.1: Op-Delta 'minimizes the volume of data transported'."""
        from repro.core import FileLogStore, OpDeltaCapture
        from repro.engine import Database
        from repro.extraction import TriggerExtractor
        from repro.workloads import OltpWorkload

        database = Database("vol-src", clock=clock)
        workload = OltpWorkload(database)
        workload.create_table()
        workload.populate(2_000)
        store = FileLogStore(database)
        OpDeltaCapture(workload.session, store, tables={"parts"}).attach()
        triggers = TriggerExtractor(database, "parts")
        triggers.install()
        workload.run_update(1_000)

        shipper = FileShipper(network)
        shipper.ship_value_deltas(triggers.drain_to_batch())
        shipper.ship_op_deltas(store.drain())
        value_bytes, op_bytes = [t.payload_bytes for t in network.transfers]
        assert op_bytes * 100 < value_bytes


class TestWindowHandOff:
    """Transport moves the window it is given; transforms are the caller's."""

    def test_entry_points_take_the_window_and_nothing_else(self):
        import inspect

        from repro.transport import enqueue_op_deltas

        assert list(inspect.signature(FileShipper.ship_op_deltas).parameters) == [
            "self",
            "groups",
        ]
        assert list(inspect.signature(enqueue_op_deltas).parameters) == [
            "queue",
            "groups",
        ]

    def test_enqueueing_a_routed_window_keeps_the_event_sequence(self, clock):
        """Route, then enqueue: ROUTED per table, PRUNED per diverted op,
        ENQUEUED for what is left — the order the removed ``switcher``
        option of ``enqueue_op_deltas`` recorded."""
        from repro.core.opdelta import OpDelta, OpDeltaTransaction, OpKind
        from repro.extraction.switcher import (
            AdaptiveExtractionSwitcher,
            TableProfile,
        )
        from repro.obs.pipeline import PipelineRecorder, observe_pipeline
        from repro.transport import enqueue_op_deltas

        def op(txn_id, sequence, table, assignment):
            return OpDelta(
                statement_text=f"UPDATE {table} SET {assignment} WHERE part_ref >= 0",
                table=table,
                kind=OpKind.UPDATE,
                txn_id=txn_id,
                sequence=sequence,
                captured_at=1.0,
            )

        window = [
            OpDeltaTransaction(
                txn_id=1,
                operations=[
                    op(1, 0, "parts", "quantity = 1"),
                    op(1, 1, "hot_parts", "quantity = 1"),
                ],
            ),
            OpDeltaTransaction(
                txn_id=2,
                operations=[
                    op(2, 0, "hot_parts", "quantity = 2"),
                    op(2, 1, "hot_parts", "quantity = 3"),
                ],
            ),
        ]
        # Two live rows rewritten three times: reloading beats replaying.
        switcher = AdaptiveExtractionSwitcher(
            profiles={
                "parts": TableProfile(rows=10_000),
                "hot_parts": TableProfile(rows=2),
            }
        )
        recorder = PipelineRecorder(clock=clock)
        queue: PersistentQueue = PersistentQueue(clock, name="routed")
        with observe_pipeline(recorder):
            routed, decisions = switcher.route_window(window, at_ms=clock.now)
            assert enqueue_op_deltas(queue, routed) == 1
        assert [d.table for d in decisions if d.use_staging] == ["hot_parts"]
        assert [
            (event.kind.value, event.correlation_id, event.detail.split(" ")[0])
            for event in recorder.log
        ] == [
            ("routed", "switcher:hot_parts", "method=snapshot-diff"),
            ("routed", "switcher:parts", "method=op-delta"),
            ("pruned", "txn1:op1", "stage=switcher-snapshot-diff"),
            ("pruned", "txn2:op0", "stage=switcher-snapshot-diff"),
            ("pruned", "txn2:op1", "stage=switcher-snapshot-diff"),
            ("enqueued", "txn1:op0", ""),
        ]
