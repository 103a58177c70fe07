"""Harness-side host-clock spans: the per-layer attribution "from outside".

The library's own tracer stamps *virtual* milliseconds and REPRO001 bans
host-clock reads inside ``src/repro``, so the benchmark records its spans
here, around each call it makes into a layer's public functions.  A span is
``[name, start_ns, end_ns, parent, window]``; spans nest lexically (one
thread), are kept in memory, and are written out when the rep ends.

A layer's **self time** is its spans' duration minus the part of that
interval its child spans cover — the only number that may be summed across
layers without double counting.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter_ns
from typing import Any

#: Indices into one span record.
NAME, START, END, PARENT, WINDOW = range(5)


class _OpenSpan:
    __slots__ = ("_recorder", "_name", "_index")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> None:
        recorder = self._recorder
        stack = recorder._stack
        self._index = len(recorder.spans)
        parent = stack[-1] if stack else -1
        stack.append(self._index)
        recorder.spans.append(
            [self._name, perf_counter_ns(), 0, parent, recorder.window]
        )

    def __exit__(self, *exc: object) -> None:
        recorder = self._recorder
        recorder.spans[self._index][END] = perf_counter_ns()
        recorder._stack.pop()


class SpanRecorder:
    """Records nested host-time spans; ``window`` is the shared identifier."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        #: Window id stamped on every span opened from now on.
        self.window = -1

    def span(self, name: str) -> _OpenSpan:
        return _OpenSpan(self, name)


class NullRecorder:
    """The untraced reps' recorder: same call shape, records nothing."""

    window = -1
    spans: list[list[Any]] = []
    _null = nullcontext()

    def span(self, name: str) -> nullcontext:
        return self._null


def self_times(
    spans: list[list[Any]], first_window: int = 1
) -> dict[str, dict[str, float]]:
    """Fold spans into ``name -> {calls, busy_s, self_s}``.

    Only spans of windows ``>= first_window`` count (window 0 is warm-up).
    ``busy_s`` is the summed duration; ``self_s`` subtracts each span's
    direct children, so the ``self_s`` column telescopes to the wall time
    the root spans cover.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    table: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span[WINDOW] < first_window:
            continue
        row = table.setdefault(
            span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        duration = span[END] - span[START]
        row["calls"] += 1
        row["busy_s"] += duration / 1e9
        row["self_s"] += (duration - child_ns[index]) / 1e9
    return table


def coverage(spans: list[list[Any]], first_window: int = 1) -> float:
    """Share of the ``pipeline.window`` wall time that layer spans cover.

    A layer span is one opened directly under a ``pipeline.*`` phase span;
    what they leave uncovered is the driver's own loop.
    """
    wall = covered = 0
    for span in spans:
        if span[WINDOW] < first_window:
            continue
        if span[NAME] == "pipeline.window":
            wall += span[END] - span[START]
        elif span[PARENT] >= 0 and spans[span[PARENT]][NAME].startswith(
            "pipeline."
        ) and not span[NAME].startswith("pipeline."):
            covered += span[END] - span[START]
    return covered / wall if wall else 0.0


def render_self_times(table: dict[str, dict[str, float]]) -> str:
    """The per-layer self-time table, widest self time first."""
    total = sum(row["self_s"] for row in table.values()) or 1.0
    lines = [f"{'span':<34}{'calls':>8}{'busy_s':>10}{'self_s':>10}{'self%':>8}"]
    for name, row in sorted(
        table.items(), key=lambda item: item[1]["self_s"], reverse=True
    ):
        lines.append(
            f"{name:<34}{int(row['calls']):>8}{row['busy_s']:>10.3f}"
            f"{row['self_s']:>10.3f}{100 * row['self_s'] / total:>7.1f}%"
        )
    return "\n".join(lines)


def chrome_trace(spans: list[list[Any]], process: str) -> str:
    """Chrome ``chrome://tracing`` / Perfetto JSON (``ph: "X"``, µs)."""
    origin = spans[0][START] if spans else 0
    events = [
        {
            "name": span[NAME],
            "ph": "X",
            "ts": (span[START] - origin) / 1e3,
            "dur": (span[END] - span[START]) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"window": span[WINDOW], "parent": span[PARENT]},
        }
        for span in spans
    ]
    events.append(
        {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": process}}
    )
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
