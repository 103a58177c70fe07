"""Network cost model for delta transport.

Moving deltas from the sources to the warehouse (or a staging area) costs
latency plus payload time on the paper's 10 Mb/s switched LAN.  The model
charges the shared virtual clock, so transport composes with extraction and
integration into end-to-end timings.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clock import VirtualClock
from ..engine.costs import DEFAULT_COST_MODEL
from ..obs.metrics import MetricsLike, MetricsRegistry


@dataclass
class TransferRecord:
    """One completed transfer."""

    description: str
    payload_bytes: int
    elapsed_ms: float


class NetworkModel:
    """Charges a round trip plus payload time per transfer."""

    def __init__(
        self,
        clock: VirtualClock,
        metrics: MetricsLike | None = None,
    ) -> None:
        self._clock = clock
        self._costs = DEFAULT_COST_MODEL
        self.transfers: list[TransferRecord] = []
        if metrics is None:
            metrics = MetricsRegistry()
        self._m_bytes = metrics.counter("transport.network.bytes")
        self._m_latency = metrics.histogram("transport.network.latency_ms")

    @property
    def clock(self) -> VirtualClock:
        """The network's virtual clock (stamps transfer completion times)."""
        return self._clock

    def transfer(self, payload_bytes: int, description: str = "transfer") -> float:
        """Ship a payload; returns the elapsed virtual milliseconds."""
        if payload_bytes < 0:
            raise ValueError(f"payload cannot be negative: {payload_bytes}")
        with self._clock.stopwatch() as watch:
            self._clock.advance(
                self._costs.lan_round_trip
                + self._costs.network_transfer(payload_bytes)
            )
        record = TransferRecord(description, payload_bytes, watch.elapsed)
        self.transfers.append(record)
        self._m_bytes.inc(payload_bytes)
        self._m_latency.observe(record.elapsed_ms)
        return record.elapsed_ms
