"""Metric instruments and their registry.

The registry hands out three instrument kinds, all recording **virtual**
quantities only (counts, bytes, virtual milliseconds) so that every value
is deterministic across runs:

* :class:`Counter` — a monotonically increasing total (``inc``);
* :class:`Gauge` — a point-in-time level with a high-water mark (``set``);
* :class:`Histogram` — a bucketed distribution (``observe``).

Instruments are named ``<subsystem>.<object>.<event>`` (for example
``engine.buffer.miss``) and may carry labels — the same name with
different labels is a different time series, exactly as in Prometheus.
Getting an instrument is idempotent: the first call creates it, later
calls return the same object, so hot paths hold a direct reference and an
increment is one attribute bump.

:class:`NullRegistry` (and its shared :data:`NULL_REGISTRY` instance) is
the explicit opt-out: every instrument it returns is a shared no-op
singleton, so instrumented code pays one dynamic call and nothing else.
Note that code which *reads back* instrument values (the engine's
``hits``/``misses`` read-through properties) will read zero under the null
registry — it trades introspection for the last bit of speed.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterator
from typing import Any

from ..errors import ObservabilityError

#: Metric names follow ``<subsystem>.<object>.<event>`` — at least two dots
#: of lowercase words, enforced at creation time so typos fail fast.
_NAME_PATTERN = re.compile(r"^[a-z0-9_]+\.[a-z0-9_]+(\.[a-z0-9_]+)+$")

#: Every histogram's bucket upper bounds (virtual milliseconds): a 1-2.5-5
#: ladder from sub-millisecond index probes up to multi-minute maintenance
#: windows.  Values above the last bound land in an overflow bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0,
    25_000.0, 50_000.0, 100_000.0, 250_000.0, 500_000.0, 1_000_000.0,
)


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    return tuple(sorted(labels.items()))


def qualify(name: str, labels: dict[str, Any]) -> str:
    """Render ``name{k=v,...}`` the way the snapshot and reports key series."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class Instrument:
    """Common identity of every metric instrument."""

    __slots__ = ("name", "labels")
    kind = "instrument"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = labels

    @property
    def qualified_name(self) -> str:
        return qualify(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.qualified_name!r})"


class Counter(Instrument):
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount


class Gauge(Instrument):
    """A point-in-time level; remembers its high-water mark."""

    __slots__ = ("value", "high_water")
    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.value: float = 0
        self.high_water: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class Histogram(Instrument):
    """A bucketed distribution of deterministic observations."""

    __slots__ = ("buckets", "bucket_counts", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        super().__init__(name, labels)
        self.buckets = DEFAULT_BUCKETS
        #: One slot per bound plus the overflow bucket.
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bucket bound at quantile ``q`` (0..1); 0 when empty."""
        if not 0 <= q <= 1:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for position, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if position < len(self.buckets):
                    return self.buckets[position]
                return self.max if self.max is not None else 0.0
        return self.max if self.max is not None else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Creates, deduplicates and exports metric instruments."""

    #: Instrumented code may branch on this to skip expensive preparation
    #: (string formatting, snapshots) when metrics are off.
    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, tuple], Instrument] = {}

    # ------------------------------------------------------------ instruments
    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def labelled(self, **labels: Any) -> LabelledRegistry:
        """A view of this registry that stamps ``labels`` on every instrument."""
        return LabelledRegistry(self, labels)

    def _get(self, cls: type, name: str, labels: dict[str, Any]):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            if not _NAME_PATTERN.match(name):
                raise ObservabilityError(
                    f"metric name {name!r} does not follow the "
                    "'<subsystem>.<object>.<event>' convention"
                )
            instrument = cls(name, dict(labels))
            self._instruments[key] = instrument
        elif type(instrument) is not cls:
            raise ObservabilityError(
                f"metric {qualify(name, labels)!r} is a {instrument.kind}, "
                f"not a {cls.kind}"
            )
        return instrument

    # ------------------------------------------------------------------ reads
    def instruments(self) -> Iterator[Instrument]:
        """All instruments, sorted by qualified name (deterministic order)."""
        return iter(sorted(
            self._instruments.values(), key=lambda i: i.qualified_name
        ))

    def value(self, name: str, **labels: Any) -> float:
        """Read one series: counter/gauge value, histogram count; 0 if absent."""
        instrument = self._instruments.get((name, _label_key(labels)))
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            return float(instrument.count)
        return instrument.value  # type: ignore[union-attr]

    def total(self, name: str) -> float:
        """Sum a metric across every label combination it was recorded with."""
        total = 0.0
        for (metric_name, _), instrument in self._instruments.items():
            if metric_name != name:
                continue
            if isinstance(instrument, Histogram):
                total += instrument.count
            else:
                total += instrument.value  # type: ignore[union-attr]
        return total

    # ----------------------------------------------------------------- export
    def snapshot(self) -> dict[str, dict[str, Any]]:
        """A plain-dict export: kind -> qualified name -> value(s)."""
        counters: dict[str, float] = {}
        gauges: dict[str, dict[str, float]] = {}
        histograms: dict[str, dict[str, float]] = {}
        for instrument in self.instruments():
            key = instrument.qualified_name
            if isinstance(instrument, Counter):
                counters[key] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[key] = {
                    "value": instrument.value, "high_water": instrument.high_water
                }
            else:
                assert isinstance(instrument, Histogram)
                histograms[key] = instrument.summary()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({len(self._instruments)} instruments)"


class LabelledRegistry:
    """A registry view that merges fixed labels into every request.

    Call-site labels win over the fixed ones, and views nest — the
    engine's components receive ``registry.labelled(db=name)`` from their
    :class:`~repro.engine.database.Database` so every engine series is
    attributable to its instance without the components knowing about it.
    """

    __slots__ = ("_parent", "_labels")

    def __init__(self, parent: MetricsRegistry, labels: dict[str, Any]) -> None:
        self._parent = parent
        self._labels = labels

    @property
    def enabled(self) -> bool:
        return self._parent.enabled

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._parent.counter(name, **{**self._labels, **labels})

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._parent.gauge(name, **{**self._labels, **labels})

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._parent.histogram(name, **{**self._labels, **labels})

    def labelled(self, **labels: Any) -> LabelledRegistry:
        return LabelledRegistry(self._parent, {**self._labels, **labels})


class NullRegistry(MetricsRegistry):
    """A registry whose instruments record nothing.

    Every request returns a shared no-op singleton, so the instrumented
    hot path costs one method call that immediately returns.
    """

    enabled = False

    _COUNTER = _NullCounter("null.null.counter", {})
    _GAUGE = _NullGauge("null.null.gauge", {})
    _HISTOGRAM = _NullHistogram("null.null.histogram", {})

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._COUNTER

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._GAUGE

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._HISTOGRAM

    def labelled(self, **labels: Any) -> NullRegistry:  # type: ignore[override]
        return self


#: Shared do-nothing registry for explicitly un-instrumented components.
NULL_REGISTRY = NullRegistry()

#: What instrumented components accept: a registry or a labelled view of one.
MetricsLike = MetricsRegistry | LabelledRegistry

