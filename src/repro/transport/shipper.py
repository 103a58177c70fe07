"""Shipping delta artifacts to the warehouse / staging area.

Wraps the network model with knowledge of the artifact kinds the pipelines
ship (value-delta batches, log segments, Op-Delta transaction groups) so
end-to-end experiments can move them with one call and the right payload
sizes.

Transport moves the window it is given and stamps its arrival; it does
not decide what is in the window.  Routing, compaction and the re-proof
of compaction obligations are plain calls the pipeline makes
*before* handing the window over (``route_window``, ``compact_window``,
``verify_compaction``) — each returns its result and settles the ops it
drops itself (DESIGN.md, "One pipeline assembly").
"""

from __future__ import annotations

from typing import Iterable

from ..core.opdelta import OpDeltaTransaction
from ..engine.wal import LogSegment
from ..extraction.deltas import DeltaBatch
from ..obs.context import ambient_tracer
from ..obs.pipeline.context import ambient_pipeline
from ..obs.tracing import NULL_TRACER
from .network import NetworkModel
from .queue import PersistentQueue


class FileShipper:
    """Moves extraction artifacts across the LAN."""

    def __init__(self, network: NetworkModel) -> None:
        self._network = network

    def ship_value_deltas(self, batch: DeltaBatch) -> float:
        return self._network.transfer(batch.size_bytes, f"value-delta:{batch.table}")

    def ship_log_segments(self, segments: Iterable[LogSegment]) -> float:
        payload = sum(
            record.payload_bytes for segment in segments for record in segment.records
        )
        return self._network.transfer(payload, "log-segments")

    def ship_op_deltas(self, groups: Iterable[OpDeltaTransaction]) -> float:
        window = list(groups)
        payload = sum(group.size_bytes for group in window)
        tracer = ambient_tracer() or NULL_TRACER
        with tracer.span(
            "transport.ship.op_deltas",
            clock=self._network.clock,
            groups=len(window),
            bytes=payload,
        ):
            elapsed = self._network.transfer(payload, "op-deltas")
        recorder = ambient_pipeline()
        if recorder is not None:
            # Stamped when the transfer completes: the whole window moves
            # as one payload, so every op shares the arrival time.
            arrived = self._network.clock.now
            for group in window:
                recorder.record_shipped(group, at_ms=arrived)
            recorder.record_window_shipped(at_ms=arrived, groups=len(window))
        return elapsed


def enqueue_op_deltas(
    queue: PersistentQueue[OpDeltaTransaction],
    groups: Iterable[OpDeltaTransaction],
) -> int:
    """Feed Op-Delta groups into a persistent queue (one message per txn).

    ``groups`` may be lazy: each group is pulled, then enqueued, so a
    transform that settles ops as it yields interleaves its events with the
    queue's ENQUEUED stamps.
    """
    count = 0
    tracer = ambient_tracer() or NULL_TRACER
    with tracer.span("transport.queue.enqueue_window", clock=queue.clock):
        for group in groups:
            queue.enqueue(group, group.size_bytes)
            count += 1
    recorder = ambient_pipeline()
    if recorder is not None:
        recorder.record_window_shipped(at_ms=queue.clock.now, groups=count)
    return count
