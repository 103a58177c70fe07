"""Persistent queue with transactional dequeue semantics.

§1 of the paper: "Several techniques such as ftp, persistent queues, and
fault tolerant logs all apply and the choice of technique depends on the
requirement of transaction guarantees."  This queue provides the strong
option: enqueue is durable (pays a local log force), dequeue is
peek/acknowledge — an unacknowledged message is redelivered, so a consumer
crash between apply and ack never loses a delta (at-least-once delivery).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generic, Iterable, TypeVar

from ..clock import VirtualClock
from ..engine.costs import DEFAULT_COST_MODEL
from ..errors import TransportError
from ..obs.metrics import MetricsLike, MetricsRegistry
from ..obs.pipeline.context import ambient_pipeline

T = TypeVar("T")


@dataclass
class _Envelope(Generic[T]):
    delivery_id: int
    payload: T
    size_bytes: int
    #: Delivery attempts so far; >1 on a receive means redelivery.
    attempts: int = 0


class PersistentQueue(Generic[T]):
    """FIFO queue with durable enqueue and ack-based dequeue."""

    def __init__(
        self,
        clock: VirtualClock,
        name: str = "delta-queue",
        metrics: MetricsLike | None = None,
    ) -> None:
        self._clock = clock
        self._costs = DEFAULT_COST_MODEL
        self.name = name
        self._ready: deque[_Envelope[T]] = deque()
        self._in_flight: dict[int, _Envelope[T]] = {}
        self._next_id = 1
        self.enqueued = 0
        self.acknowledged = 0
        self.redelivered = 0
        if metrics is None:
            metrics = MetricsRegistry()
        self._m_enqueued = metrics.counter("transport.queue.enqueued", queue=name)
        self._m_bytes = metrics.counter("transport.queue.bytes", queue=name)
        # High-water depth counts ready + in-flight: everything the queue
        # still has to durably hold for at-least-once delivery.
        self._m_depth = metrics.gauge("transport.queue.depth", queue=name)
        self._m_redelivered = metrics.counter(
            "transport.queue.redelivered", queue=name
        )

    def _track_depth(self) -> None:
        self._m_depth.set(len(self._ready) + len(self._in_flight))

    @property
    def clock(self) -> VirtualClock:
        """The queue's own clock (for callers stamping queue-side events)."""
        return self._clock

    def __len__(self) -> int:
        return len(self._ready)

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)

    # ------------------------------------------------------------------ produce
    def enqueue(self, payload: T, size_bytes: int) -> int:
        """Durably append a message; returns its delivery id."""
        if size_bytes < 0:
            raise TransportError(f"message size cannot be negative: {size_bytes}")
        self._clock.advance(
            self._costs.file_write(size_bytes) + self._costs.file_sync
        )
        envelope = _Envelope(self._next_id, payload, size_bytes)
        self._next_id += 1
        self._ready.append(envelope)
        self.enqueued += 1
        self._m_enqueued.inc()
        self._m_bytes.inc(size_bytes)
        self._track_depth()
        recorder = ambient_pipeline()
        if recorder is not None:
            recorder.record_enqueued(payload, at_ms=self._clock.now)
        return envelope.delivery_id

    # ------------------------------------------------------------------ consume
    def receive(self) -> tuple[int, T] | None:
        """Take the next message without removing it durably.

        Returns ``(delivery_id, payload)`` or ``None`` when empty.  The
        message stays in flight until :meth:`ack` (success) or
        :meth:`nack` (requeue at the front).
        """
        if not self._ready:
            return None
        envelope = self._ready.popleft()
        self._clock.advance(self._costs.file_read(envelope.size_bytes))
        self._in_flight[envelope.delivery_id] = envelope
        envelope.attempts += 1
        if envelope.attempts > 1:
            # A nacked/recovered message coming around again: the
            # at-least-once duplicate risk becomes an observable event.
            self._m_redelivered.inc()
            recorder = ambient_pipeline()
            if recorder is not None:
                recorder.record_redelivered(
                    envelope.payload, envelope.attempts, at_ms=self._clock.now
                )
        return envelope.delivery_id, envelope.payload

    def receive_window(self, limit: int) -> list[tuple[int, T]]:
        """Take up to ``limit`` messages as one shippable window.

        The batched-apply seam: a consumer drains a window, applies it as
        group-commit batches, then settles the whole window with
        :meth:`ack_window` — the at-least-once guarantee now covers the
        window, not each message.  Every received message stays in flight
        until individually (or collectively) settled.
        """
        if limit < 1:
            raise TransportError(f"window size must be positive: {limit}")
        window: list[tuple[int, T]] = []
        while len(window) < limit:
            received = self.receive()
            if received is None:
                break
            window.append(received)
        return window

    def ack_window(self, delivery_ids: Iterable[int]) -> int:
        """Acknowledge a whole received window; returns messages settled.

        Fails on the first unknown delivery id — earlier ids in the window
        are already settled at that point, exactly the partial-failure
        surface :meth:`recover` redelivers after.
        """
        settled = 0
        for delivery_id in delivery_ids:
            self.ack(delivery_id)
            settled += 1
        return settled

    def ack(self, delivery_id: int) -> None:
        """Acknowledge successful processing; the message is gone for good."""
        envelope = self._in_flight.get(delivery_id)
        if envelope is None:
            raise TransportError(f"unknown or already-settled delivery {delivery_id}")
        self._clock.advance(self._costs.file_write(16) + self._costs.file_sync)
        del self._in_flight[delivery_id]
        self.acknowledged += 1
        self._track_depth()
        recorder = ambient_pipeline()
        if recorder is not None:
            recorder.record_acked(envelope.payload, at_ms=self._clock.now)

    def nack(self, delivery_id: int) -> None:
        """Return an unprocessed message to the front of the queue."""
        envelope = self._in_flight.pop(delivery_id, None)
        if envelope is None:
            raise TransportError(f"unknown or already-settled delivery {delivery_id}")
        self._ready.appendleft(envelope)
        self.redelivered += 1

    def recover(self) -> int:
        """Consumer crash: every in-flight message is redelivered."""
        recovered = 0
        for delivery_id in sorted(self._in_flight, reverse=True):
            envelope = self._in_flight.pop(delivery_id)
            self._ready.appendleft(envelope)
            recovered += 1
            self.redelivered += 1
        return recovered
