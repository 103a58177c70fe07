"""Experiment results: a uniform structure plus paper-style rendering.

Every experiment module in :mod:`repro.bench.experiments` returns an
:class:`ExperimentResult`; the benchmarks print it with :func:`render`,
which reproduces the paper's table layout and appends the paper's own
numbers (scaled to the experiment's size factor where applicable) plus the
shape checks that define "reproduced".  The report passes (``--health``,
``--flight`` …) print through :func:`render_report`; ``--sql`` through
:func:`render_query_result`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..clock import format_duration


@dataclass
class ExperimentResult:
    """Structured outcome of one table/figure reproduction."""

    experiment_id: str
    title: str
    parameters: dict[str, Any] = field(default_factory=dict)
    #: Column labels (e.g. delta sizes or txn sizes).
    headers: list[str] = field(default_factory=list)
    #: Measured series: row label -> one value per header (virtual ms
    #: unless ``unit`` says otherwise).
    series: dict[str, list[float]] = field(default_factory=dict)
    #: The paper's numbers for the same rows, if published (same unit).
    paper: dict[str, list[float]] = field(default_factory=dict)
    #: Scale divisor applied to the measured run relative to the paper
    #: (paper values are divided by this when compared).
    paper_scale_divisor: float = 1.0
    unit: str = "ms"
    notes: list[str] = field(default_factory=list)
    #: Shape assertions: name -> bool.  All must hold for "reproduced".
    checks: dict[str, bool] = field(default_factory=dict)
    #: Metrics snapshot (:meth:`repro.obs.MetricsRegistry.snapshot`) taken
    #: after the run, when the harness was invoked with ``--metrics``.
    metrics: dict[str, Any] | None = None

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def check(self, name: str, condition: bool) -> None:
        self.checks[name] = bool(condition)

    def to_dict(self) -> dict[str, Any]:
        out = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "parameters": self.parameters,
            "headers": self.headers,
            "series": self.series,
            "paper": self.paper,
            "paper_scale_divisor": self.paper_scale_divisor,
            "unit": self.unit,
            "checks": self.checks,
            "notes": self.notes,
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics
        return out


def _format_value(value: float, unit: str) -> str:
    if unit == "ms":
        return format_duration(value)
    if unit == "percent":
        return f"{value * 100:.1f}%"
    if unit == "ratio":
        return f"{value:.2f}x"
    return f"{value:.3g}"


def _render_grid(rows: list[list[str]]) -> str:
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        cells = [cell.ljust(widths[c]) if c == 0 else cell.rjust(widths[c])
                 for c, cell in enumerate(row)]
        lines.append("  ".join(cells))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render(result: ExperimentResult) -> str:
    """Render one experiment in the paper's row/column layout."""
    out = [f"== {result.experiment_id}: {result.title} =="]
    if result.parameters:
        rendered = ", ".join(f"{k}={v}" for k, v in result.parameters.items())
        out.append(f"parameters: {rendered}")
    grid = [["method \\ size"] + [str(h) for h in result.headers]]
    for label, values in result.series.items():
        grid.append([label] + [_format_value(v, result.unit) for v in values])
    out.append(_render_grid(grid))
    if result.paper:
        out.append("")
        divisor = result.paper_scale_divisor
        scale_note = f" (paper / {divisor:g} for the scaled run)" if divisor != 1 else ""
        out.append(f"paper{scale_note}:")
        grid = [["method \\ size"] + [str(h) for h in result.headers]]
        for label, values in result.paper.items():
            grid.append(
                [label] + [_format_value(v / divisor, result.unit) for v in values]
            )
        out.append(_render_grid(grid))
    if result.checks:
        out.append("")
        out.append("shape checks:")
        for name, passed in result.checks.items():
            out.append(f"  [{'PASS' if passed else 'FAIL'}] {name}")
    for note in result.notes:
        out.append(f"note: {note}")
    if result.metrics is not None:
        out.append("")
        out.append(render_cost_breakdown(result.metrics))
    return "\n".join(out)


def _subsystem(qualified_name: str) -> str:
    """`engine.buffer.hit{db=src}` -> `engine`."""
    return qualified_name.split(".", 1)[0]


def _format_count(value: float) -> str:
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:,.2f}"


def render_cost_breakdown(snapshot: dict[str, Any]) -> str:
    """Render a metrics snapshot grouped by subsystem.

    The breakdown answers the paper's cost questions at a glance: how many
    buffer-pool misses and disk reads an extraction paid, how many rows it
    scanned versus emitted, what the transport and maintenance layers added.
    """
    out = ["cost breakdown:"]
    counters: dict[str, float] = snapshot.get("counters", {})
    gauges: dict[str, dict[str, float]] = snapshot.get("gauges", {})
    histograms: dict[str, dict[str, float]] = snapshot.get("histograms", {})
    subsystems = sorted(
        {_subsystem(name) for name in (*counters, *gauges, *histograms)}
    )
    if not subsystems:
        out.append("  (no metrics recorded)")
        return "\n".join(out)
    for subsystem in subsystems:
        out.append(f"  {subsystem}:")
        for name in sorted(counters):
            if _subsystem(name) == subsystem:
                out.append(f"    {name} = {_format_count(counters[name])}")
        for name in sorted(gauges):
            if _subsystem(name) == subsystem:
                value = gauges[name]
                out.append(
                    f"    {name} = {_format_count(value['value'])} "
                    f"(high water {_format_count(value['high_water'])})"
                )
        for name in sorted(histograms):
            if _subsystem(name) == subsystem:
                h = histograms[name]
                if h["count"]:
                    out.append(
                        f"    {name}: n={_format_count(h['count'])} "
                        f"mean={h['mean']:.3f} p95={h['p95']:.3f} "
                        f"max={h['max']:.3f}"
                    )
                else:
                    out.append(f"    {name}: n=0")
    return "\n".join(out)


def render_query_result(query: dict) -> str:
    """Render one ad-hoc catalog query result (``repro-bench --sql``)."""
    out = [f"-- {query['sql']}"]
    grid = [[str(column) for column in query["columns"]]]
    for row in query["rows"]:
        grid.append(["NULL" if cell is None else str(cell) for cell in row])
    out.append(_render_grid(grid))
    count = len(query["rows"])
    out.append(f"({count} row{'' if count == 1 else 's'})")
    return "\n".join(out)


def render_report(
    title: str,
    document: dict[str, Any],
    findings: Iterable[tuple[str, dict[str, Any]]],
) -> str:
    """Render one report pass (``--health``, ``--flight``, ``--certify`` …).

    The title, then one ``name: value`` line per top-level scalar of the
    pass's ``to_dict()`` document (its verdict, in document order), then
    one grid row per finding — ``at`` says where in the document the
    finding sits.  Every other number the pass measured is in that
    document, which ``--json`` writes.
    """
    out = [f"== {title} =="]
    for name, value in document.items():
        if name != "schema_version" and value is not None and not isinstance(
            value, (dict, list)
        ):
            out.append(f"{name}: {value}")
    grid = [["at", "code", "severity", "message"]]
    for at, finding in findings:
        cells = (finding.get(key) for key in ("code", "severity", "message"))
        grid.append([at, *("-" if cell is None else str(cell) for cell in cells)])
    out.append(_render_grid(grid))
    return "\n".join(out)


def series_ratios(numerator: Sequence[float], denominator: Sequence[float]) -> list[float]:
    """Element-wise ratio of two measured series."""
    return [n / d if d else float("inf") for n, d in zip(numerator, denominator)]


def strictly_increasing(values: Sequence[float]) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def non_decreasing(values: Sequence[float]) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def roughly_constant(values: Sequence[float], tolerance: float = 0.6) -> bool:
    """Max/min spread within ``1 + tolerance``."""
    if not values:
        return True
    low, high = min(values), max(values)
    if low <= 0:
        return False
    return high / low <= 1.0 + tolerance


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
