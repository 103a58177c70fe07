"""Hierarchical spans stamped in virtual milliseconds.

A :class:`Tracer` records nested regions of work against a
:class:`~repro.clock.VirtualClock`::

    tracer = Tracer().bound(clock)
    with tracer.span("extract.timestamp.scan"):
        ...

Spans nest lexically (the engine is single-threaded, so the open-span
stack *is* the call hierarchy) and are stamped with the clock's virtual
time on entry and exit — never the host clock — so a trace is exactly as
deterministic as the experiment that produced it.

Because one experiment can involve several databases with *different*
clocks (a source, a staging area, a warehouse), the tracer itself is not
married to one clock: :meth:`Tracer.bound` returns a lightweight view tied
to a specific clock, and every :class:`~repro.engine.database.Database`
holds such a view over the shared tracer.

Export: :meth:`Tracer.chrome_trace_events` renders the spans as Chrome
``chrome://tracing`` / Perfetto "complete" (``ph: "X"``) events with
microsecond timestamps; ``repro-bench --trace`` writes them as one loadable
JSON document.
"""

from __future__ import annotations

from typing import Any

from ..clock import VirtualClock
from ..errors import ObservabilityError


class Span:
    """One traced region: name, virtual start/end, position in the tree."""

    __slots__ = ("name", "start_ms", "end_ms", "depth", "parent", "args")

    def __init__(
        self,
        name: str,
        start_ms: float,
        depth: int,
        parent: Span | None,
        args: dict[str, Any],
    ) -> None:
        self.name = name
        self.start_ms = start_ms
        self.end_ms: float | None = None
        self.depth = depth
        self.parent = parent
        self.args = args

    @property
    def is_open(self) -> bool:
        return self.end_ms is None

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            raise ObservabilityError(f"span {self.name!r} is still open")
        return self.end_ms - self.start_ms

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.is_open else f"{self.duration_ms:.3f}ms"
        return f"Span({self.name!r}, start={self.start_ms:.3f}, {state})"


class _OpenSpan:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_clock", "span")

    def __init__(self, tracer: Tracer, clock: VirtualClock, span: Span) -> None:
        self._tracer = tracer
        self._clock = clock
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(self.span, self._clock)


class _NullSpan:
    """Shared allocation-free context manager for the null tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records spans, each stamped from the clock it is opened with."""

    enabled = True

    def __init__(self) -> None:
        #: All spans in start order (closed in place as regions exit).
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    # ----------------------------------------------------------------- clocks
    def bound(self, clock: VirtualClock) -> BoundTracer:
        """A view of this tracer that stamps spans from ``clock``."""
        return BoundTracer(self, clock)

    # ------------------------------------------------------------------ spans
    def span(
        self, name: str, clock: VirtualClock | None = None, **args: Any
    ) -> _OpenSpan:
        if clock is None:
            raise ObservabilityError(
                f"cannot open span {name!r} without a clock; pass one or use "
                "tracer.bound(clock)"
            )
        parent = self._stack[-1] if self._stack else None
        span = Span(name, clock.now, len(self._stack), parent, args)
        self.spans.append(span)
        self._stack.append(span)
        return _OpenSpan(self, clock, span)

    def _close(self, span: Span, clock: VirtualClock) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} closed out of nesting order"
            )
        self._stack.pop()
        span.end_ms = clock.now

    # ------------------------------------------------------------------ reads
    def children(self, parent: Span) -> list[Span]:
        return [span for span in self.spans if span.parent is parent]

    # ----------------------------------------------------------------- export
    def chrome_trace_events(
        self, pid: int = 1, process_name: str | None = None
    ) -> list[dict[str, Any]]:
        """Spans as Chrome-trace "complete" events (timestamps in µs).

        Open spans are skipped — a trace is exported after the work it
        describes.  Nesting is conveyed by time containment on one thread
        track, which is how chrome://tracing renders ``ph: "X"`` events.
        """
        events: list[dict[str, Any]] = []
        if process_name is not None:
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": process_name},
            })
        for span in self.spans:
            if span.is_open:
                continue
            event: dict[str, Any] = {
                "name": span.name,
                "ph": "X",
                "ts": span.start_ms * 1000.0,
                "dur": span.duration_ms * 1000.0,
                "pid": pid,
                "tid": 0,
            }
            if span.args:
                event["args"] = dict(span.args)
            events.append(event)
        return events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({len(self.spans)} spans)"


class BoundTracer:
    """A tracer view tied to one clock (what ``Database.tracer`` holds)."""

    __slots__ = ("tracer", "clock")

    def __init__(self, tracer: Tracer, clock: VirtualClock) -> None:
        self.tracer = tracer
        self.clock = clock

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    @property
    def spans(self) -> list[Span]:
        return self.tracer.spans

    def span(self, name: str, **args: Any) -> _OpenSpan:
        return self.tracer.span(name, clock=self.clock, **args)

    def bound(self, clock: VirtualClock) -> BoundTracer:
        return BoundTracer(self.tracer, clock)


class NullTracer(Tracer):
    """A tracer that records nothing; ``span`` is allocation-free."""

    enabled = False

    def span(
        self, name: str, clock: VirtualClock | None = None, **args: Any
    ) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def bound(self, clock: VirtualClock) -> NullTracer:  # type: ignore[override]
        return self


#: Shared do-nothing tracer: the default when no ambient tracer is active.
NULL_TRACER = NullTracer()

#: What instrumented components accept as a tracer.
TracerLike = Tracer | BoundTracer
