"""Virtual-time metric series: bounded ring buffers and their store.

The flight recorder's core data structure.  A :class:`RingSeries` holds
the most recent ``capacity`` ``(at_ms, value)`` samples of one named
signal; a :class:`TimeSeriesStore` is the dictionary of every series one
pipeline run produced.  :class:`FlightRecorder` is the sampling hook the
:class:`~repro.obs.pipeline.recorder.PipelineRecorder` calls on every
shipped window — it folds the metrics registry, the four-stage lag
decomposition, per-view staleness, source watermarks and queue depth into
the store at that window's virtual timestamp.

Time discipline (enforced by lint rule REPRO005): nothing in this package
constructs a clock or reads ambient context.  Every timestamp arrives as
an ``at_ms`` argument stamped by the observing component's own injected
:class:`~repro.clock.VirtualClock`, so a flight recording is exactly as
deterministic as the run that produced it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Mapping, Protocol

from ...errors import ObservabilityError
from ..stats import nearest_rank_percentile

#: One recorded point: (virtual ms, value).
Sample = tuple[float, float]

#: Per-series retention (samples, not time): enough for hundreds of
#: shipped windows while bounding a long-running pipeline's memory.
DEFAULT_CAPACITY = 512


class RingSeries:
    """One named signal's bounded, monotone virtual-time sample ring."""

    __slots__ = ("name", "_samples", "dropped", "recorded")
    capacity = DEFAULT_CAPACITY

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: deque[Sample] = deque(maxlen=DEFAULT_CAPACITY)
        #: Samples evicted by the ring bound (retention loss, counted).
        self.dropped = 0
        #: Samples ever recorded (pre-eviction).
        self.recorded = 0

    def record(self, at_ms: float, value: float) -> None:
        """Append one sample; timestamps must never go backwards."""
        if self._samples and at_ms < self._samples[-1][0]:
            raise ObservabilityError(
                f"series {self.name!r} sampled at {at_ms}ms after "
                f"{self._samples[-1][0]}ms — virtual time is monotone"
            )
        if len(self._samples) == self.capacity:
            self.dropped += 1
        self._samples.append((at_ms, float(value)))
        self.recorded += 1

    # ------------------------------------------------------------------ reads
    def __len__(self) -> int:
        return len(self._samples)

    @property
    def latest(self) -> Sample | None:
        return self._samples[-1] if self._samples else None

    def window(
        self, since_ms: float | None = None, until_ms: float | None = None
    ) -> list[Sample]:
        """The retained samples with ``since_ms < at_ms <= until_ms``.

        The window is half-open on the left so that back-to-back windows
        of width W partition the timeline without double-counting the
        boundary sample.  ``None`` bounds are unbounded.
        """
        return [
            sample
            for sample in self._samples
            if (since_ms is None or sample[0] > since_ms)
            and (until_ms is None or sample[0] <= until_ms)
        ]

    def values(
        self, since_ms: float | None = None, until_ms: float | None = None
    ) -> list[float]:
        return [value for _at, value in self.window(since_ms, until_ms)]

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the retained samples (0.0 if empty)."""
        return nearest_rank_percentile(self.values(), q)

    def mean(self, since_ms: float | None = None) -> float:
        values = self.values(since_ms)
        return sum(values) / len(values) if values else 0.0

    def max(
        self,
        since_ms: float | None = None,
        until_ms: float | None = None,
    ) -> float:
        values = self.values(since_ms, until_ms)
        return max(values) if values else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "samples": [[at_ms, value] for at_ms, value in self._samples],
        }


class TimeSeriesStore:
    """Every named series of one flight recording, keyed by signal name.

    Series names follow the metric convention loosely —
    ``<signal>.<entity>.<unit>`` (``view.parts_catalog.staleness_ms``,
    ``queue.flight.depth``) — but are not registry metrics: a series holds
    a *history*, where an instrument holds a current value.
    """

    def __init__(self) -> None:
        self._series: dict[str, RingSeries] = {}
        #: Shipped windows sampled into the store.
        self.windows_sampled = 0

    def series(self, name: str) -> RingSeries:
        """The named series, created empty on first use."""
        found = self._series.get(name)
        if found is None:
            found = RingSeries(name)
            self._series[name] = found
        return found

    def get(self, name: str) -> RingSeries | None:
        return self._series.get(name)

    def record(self, name: str, at_ms: float, value: float) -> None:
        self.series(name).record(at_ms, value)

    def names(self) -> list[str]:
        return sorted(self._series)

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def to_dict(self) -> dict[str, Any]:
        return {
            "windows_sampled": self.windows_sampled,
            "series": {
                name: self._series[name].to_dict() for name in self.names()
            },
        }


class DepthSource(Protocol):
    """What the sampler needs from a queue: a name and a current depth."""

    @property
    def name(self) -> str: ...
    def __len__(self) -> int: ...
    @property
    def in_flight(self) -> int: ...


class _RecorderView(Protocol):
    """The slice of PipelineRecorder the sampler reads (structural, so this
    package never imports the pipeline layer it observes)."""

    @property
    def lags(self) -> Mapping[str, Any]: ...
    @property
    def views(self) -> Mapping[str, Any]: ...
    @property
    def sources(self) -> Mapping[str, Any]: ...
    def source_high_ms(self) -> float | None: ...


class FlightRecorder:
    """Samples pipeline state into a :class:`TimeSeriesStore` per window.

    Install it on the :class:`~repro.obs.pipeline.recorder.PipelineRecorder`
    (``PipelineRecorder(flight=...)``); the transport layer announces each
    shipped/enqueued window and the recorder forwards the announcement
    here with the window's virtual timestamp.  Optionally a metrics
    registry (cumulative counters and gauges become rate-queryable series)
    and any number of watched queues (depth series) join each sample.
    """

    def __init__(
        self, store: TimeSeriesStore | None = None, metrics: Any | None = None
    ) -> None:
        self.store = store if store is not None else TimeSeriesStore()
        self._metrics = metrics
        self._queues: list[DepthSource] = []
        #: Per-stage lag sample counts already folded into the store, so
        #: each window records the *new* samples' statistics, not the
        #: cumulative distribution.
        self._lag_seen: dict[str, int] = {}

    def watch_queue(self, queue: DepthSource) -> None:
        self._queues.append(queue)

    # -------------------------------------------------------------- sampling
    def on_window_shipped(self, recorder: _RecorderView, at_ms: float) -> None:
        """One shippable window left the source: sample everything."""
        self.store.windows_sampled += 1
        self._sample_lags(recorder, at_ms)
        self._sample_freshness(recorder, at_ms)
        self._sample_watermarks(recorder, at_ms)
        self._sample_queues(at_ms)
        self._sample_metrics(at_ms)

    def sample_now(self, recorder: _RecorderView, at_ms: float) -> None:
        """An extra out-of-band sample (end of run, post-apply), same shape."""
        self._sample_lags(recorder, at_ms)
        self._sample_freshness(recorder, at_ms)
        self._sample_watermarks(recorder, at_ms)
        self._sample_queues(at_ms)
        self._sample_metrics(at_ms)

    def _sample_lags(self, recorder: _RecorderView, at_ms: float) -> None:
        for stage, samples in recorder.lags.items():
            seen = self._lag_seen.get(stage, 0)
            fresh = samples.values[seen:]
            self._lag_seen[stage] = len(samples.values)
            if not fresh:
                continue
            self.store.record(
                f"lag.{stage}.mean_ms", at_ms, sum(fresh) / len(fresh)
            )
            self.store.record(f"lag.{stage}.max_ms", at_ms, max(fresh))

    def _sample_freshness(self, recorder: _RecorderView, at_ms: float) -> None:
        source_high = recorder.source_high_ms()
        for name, freshness in recorder.views.items():
            self.store.record(
                f"view.{name}.staleness_ms",
                at_ms,
                freshness.staleness_ms(source_high),
            )
            self.store.record(
                f"view.{name}.ops_applied", at_ms, freshness.ops_applied
            )

    def _sample_watermarks(self, recorder: _RecorderView, at_ms: float) -> None:
        for name, watermark in recorder.sources.items():
            self.store.record(
                f"source.{name}.in_flight", at_ms, watermark.in_flight
            )
            self.store.record(
                f"source.{name}.high_seq", at_ms, watermark.high_seq
            )

    def _sample_queues(self, at_ms: float) -> None:
        for queue in self._queues:
            self.store.record(
                f"queue.{queue.name}.depth",
                at_ms,
                len(queue) + queue.in_flight,
            )

    def _sample_metrics(self, at_ms: float) -> None:
        if self._metrics is None:
            return
        for instrument in self._metrics.instruments():
            if instrument.kind in ("counter", "gauge"):
                self.store.record(
                    f"metric.{instrument.qualified_name}",
                    at_ms,
                    instrument.value,
                )
