"""Experiment results: a uniform structure plus paper-style rendering.

Every experiment module in :mod:`repro.bench.experiments` returns an
:class:`ExperimentResult`; the benchmarks print it with :func:`render`,
which reproduces the paper's table layout and appends the paper's own
numbers (scaled to the experiment's size factor where applicable) plus the
shape checks that define "reproduced".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from ..clock import format_duration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .certify import CertifyReport
    from .flight import FlightReport
    from .health import HealthReport
    from .introspect import ForensicsReport
    from .verify import VerifyReport


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


def render_health(report: "HealthReport") -> str:
    """Render one audited health pass (``repro-bench --health``).

    Per-pipeline verdict and conservation, then the flagship pipeline in
    detail: view freshness (staleness against the source high watermark),
    the per-stage lag decomposition, source watermarks and any positioned
    audit findings.
    """
    out = ["== pipeline health =="]
    if report.fault is not None:
        status = "DETECTED" if report.fault_detected else "MISSED"
        out.append(f"seeded fault: {report.fault} -> {status}")
    out.append(f"verdict: {report.verdict}")
    for mode, snap in report.modes.items():
        c = snap.conservation
        holds = c.get("captured", 0) == (
            c.get("applied", 0)
            + c.get("pruned", 0)
            + c.get("absorbed", 0)
            + c.get("rejected", 0)
        ) and c.get("in_flight", 0) == 0
        out.append(
            f"  {mode:<10} {snap.verdict:<9} "
            f"captured {c.get('captured', 0):>4} = "
            f"applied {c.get('applied', 0)} + pruned {c.get('pruned', 0)} + "
            f"absorbed {c.get('absorbed', 0)} + rejected {c.get('rejected', 0)} "
            f"(in flight {c.get('in_flight', 0)}) "
            f"[{'conserved' if holds else 'NOT CONSERVED'}]"
        )
    flagship = report.snapshot
    if flagship.views:
        out.append("")
        out.append("view freshness (flagship pipeline):")
        grid = [["view", "ops applied", "applied through", "staleness"]]
        for view in flagship.views:
            applied_through = view["applied_through_ms"]
            grid.append(
                [
                    view["view"],
                    f"{view['ops_applied']:,}",
                    "never" if applied_through is None
                    else format_duration(applied_through),
                    format_duration(view["staleness_ms"]),
                ]
            )
        out.append(_indent(_render_grid(grid)))
    if flagship.stage_lags:
        out.append("")
        out.append("per-stage lag decomposition (virtual ms):")
        grid = [["stage", "n", "mean", "p50", "p95", "max"]]
        for stage, summary in flagship.stage_lags.items():
            grid.append(
                [
                    stage,
                    f"{int(summary['count']):,}",
                    f"{summary['mean']:.2f}",
                    f"{summary['p50']:.2f}",
                    f"{summary['p95']:.2f}",
                    f"{summary['max']:.2f}",
                ]
            )
        out.append(_indent(_render_grid(grid)))
    if flagship.sources:
        out.append("")
        out.append("source watermarks:")
        for source in flagship.sources:
            out.append(
                f"  {source['source']}: low {source['low_seq']} / "
                f"high {source['high_seq']} "
                f"({source['captured']:,} captured, "
                f"{source['settled']:,} settled)"
            )
    if flagship.digest_checks:
        out.append("")
        out.append("state digests:")
        for position, matched in sorted(flagship.digest_checks.items()):
            out.append(
                f"  [{'MATCH' if matched else 'DIVERGED'}] {position}"
            )
    findings = [f for snap in report.modes.values() for f in snap.findings]
    if findings:
        out.append("")
        out.append("findings:")
        for finding in findings:
            position = finding["correlation_id"] or "<pipeline>"
            stage = f" at stage '{finding['stage']}'" if finding["stage"] else ""
            out.append(
                f"  {finding['code']} [{finding['severity']}] "
                f"{position}{stage}: {finding['message']}"
            )
    return "\n".join(out)


def render_flight(report: "FlightReport") -> str:
    """Render one flight recording (``repro-bench --flight``).

    The window timeline (load, backlog, staleness, findings per window),
    then the top-K cost-attribution profile and every SLO state
    transition with its position in virtual time.
    """
    out = ["== flight recorder =="]
    verdict = "CLEAN" if report.exit_code == 0 else "FINDINGS"
    out.append(
        f"verdict: {verdict} (spike detected: {report.spike_detected}, "
        f"all clear: {report.all_clear}, "
        f"ledger conservative: {report.conservative})"
    )
    out.append(f"final virtual time: {format_duration(report.final_virtual_ms)}")
    if report.windows:
        out.append("")
        out.append("window timeline:")
        grid = [
            ["win", "at", "txns", "enq", "applied", "depth", "staleness", ""]
        ]
        for window in report.windows:
            codes = ",".join(f["code"] for f in window["findings"])
            marker = "SPIKE" if window["spike"] else ""
            if codes:
                marker = f"{marker} {codes}".strip()
            grid.append(
                [
                    str(window["window"]),
                    format_duration(window["at_ms"]),
                    str(window["txns"]),
                    str(window["enqueued"]),
                    str(window["applied"]),
                    str(window["queue_depth"]),
                    format_duration(window["staleness_ms"]),
                    marker,
                ]
            )
        out.append(_indent(_render_grid(grid)))
    top = report.top(8)
    if top:
        out.append("")
        total_ms = report.ledger.get("total_traced_ms", 0.0)
        out.append(
            f"where did the time go ({format_duration(total_ms)} traced):"
        )
        grid = [["stage", "entity", "self time", "share", "spans"]]
        for row in top:
            share = row["self_ms"] / total_ms if total_ms else 0.0
            grid.append(
                [
                    row["stage"],
                    row["entity"],
                    format_duration(row["self_ms"]),
                    f"{share * 100:.1f}%",
                    f"{row['spans']:,}",
                ]
            )
        out.append(_indent(_render_grid(grid)))
    if report.findings:
        out.append("")
        out.append("SLO findings:")
        for finding in report.findings:
            out.append(
                f"  {finding['code']} [{finding['severity']}] "
                f"@{format_duration(finding['at_ms'])} "
                f"{finding['objective']}: {finding['message']}"
            )
    return "\n".join(out)


def _render_blame(rows: list[dict]) -> str:
    grid = [["entity", "ops", "check", "ship", "queue", "apply", "critical"]]
    for row in rows:
        segments = row["segments"]
        grid.append(
            [
                row["label"],
                str(row["ops"]),
                format_duration(segments["check"]),
                format_duration(segments["ship"]),
                format_duration(segments["queue"]),
                format_duration(segments["apply"]),
                row["critical_stage"],
            ]
        )
    return _render_grid(grid)


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


def render_forensics(report: "ForensicsReport") -> str:
    """Render one queue-stall drill (``repro-bench --forensics``).

    The drill verdict, the window timeline with the stall marked, the
    ``sys.*`` table census, per-window/per-view stage blame with the p99
    critical path, the SQL-vs-auditor conservation balance sheet and the
    monitoring-view refresh ledger.
    """
    out = ["== system catalog forensics =="]
    verdict = "STALL BLAMED" if report.exit_code == 0 else "FORENSICS FAILED"
    out.append(
        f"verdict: {verdict} (p99 stage: {report.p99_stage or '<none>'}, "
        f"queue share: {report.p99_queue_share * 100:.1f}%, "
        f"conservation: {'match' if report.conservation_matches else 'DIVERGED'}, "
        f"observer cost: {'zero' if report.zero_cost_ok else 'NONZERO'})"
    )
    out.append(f"final virtual time: {format_duration(report.final_virtual_ms)}")
    if report.windows:
        out.append("")
        out.append("window timeline:")
        grid = [["win", "at", "txns", "enq", "applied", "depth", ""]]
        for window in report.windows:
            grid.append(
                [
                    str(window["window"]),
                    format_duration(window["at_ms"]),
                    str(window["txns"]),
                    str(window["enqueued"]),
                    str(window["applied"]),
                    str(window["queue_depth"]),
                    "STALLED" if window["stalled"] else "",
                ]
            )
        out.append(_indent(_render_grid(grid)))
    if report.table_rows:
        out.append("")
        out.append("system catalog:")
        grid = [["table", "rows"]]
        for name, rows in report.table_rows.items():
            grid.append([name, f"{rows:,}"])
        out.append(_indent(_render_grid(grid)))
    p99 = report.forensics.get("p99")
    if p99 is not None:
        out.append("")
        out.append(
            f"p99 critical path: {p99['correlation_id']} "
            f"(window {p99['window_index']}, "
            f"views {','.join(p99['views']) or '<none>'})"
        )
        out.append(
            f"  check {format_duration(p99['check_ms'])}"
            f" | ship {format_duration(p99['ship_ms'])}"
            f" | queue {format_duration(p99['queue_ms'])}"
            f" | apply {format_duration(p99['apply_ms'])}"
            f" -> end-to-end {format_duration(p99['end_to_end_ms'])}"
        )
    if report.forensics.get("windows"):
        out.append("")
        out.append("stage blame by window:")
        out.append(_indent(_render_blame(report.forensics["windows"])))
    if report.forensics.get("views"):
        out.append("")
        out.append("stage blame by view:")
        out.append(_indent(_render_blame(report.forensics["views"])))
    if report.conservation_sql:
        out.append("")
        state = "match" if report.conservation_matches else "DIVERGED"
        out.append(f"conservation ({state}):")
        grid = [["bucket", "sql", "auditor"]]
        for bucket, sql_count in report.conservation_sql.items():
            grid.append(
                [
                    bucket,
                    str(sql_count),
                    str(report.conservation_auditor.get(bucket, 0)),
                ]
            )
        out.append(_indent(_render_grid(grid)))
    if report.meta_refreshes:
        out.append("")
        out.append(
            "monitoring views "
            f"(converged: {report.meta_converged}, "
            f"guard: {report.meta_guard_ok}, "
            f"digests: {report.meta_digests_ok}):"
        )
        for index, refresh in enumerate(report.meta_refreshes):
            deltas = ", ".join(
                f"{delta['table']} +{delta['inserted']}"
                f"/~{delta['updated']}/-{delta['deleted']}"
                for delta in refresh["deltas"]
                if delta["inserted"] or delta["updated"] or delta["deleted"]
            )
            out.append(
                f"  refresh {index}: {refresh['rows_changed']} rows changed"
                + (f" ({deltas})" if deltas else " (empty delta)")
            )
    if report.query is not None:
        out.append("")
        out.append(render_query_result(report.query))
    return "\n".join(out)


def render_certify(report: "CertifyReport") -> str:
    """Render one certification pass (``repro-bench --certify``).

    Per-schedule certificates, the widening delta (what the structural
    commutativity prover buys), the state-parity and sanitizer-overhead
    verdicts, and — for the race drill — every positioned ``RACE*``
    finding with its witness interleaving.
    """
    out = ["== schedule certification =="]
    if report.fault is not None:
        status = "DETECTED" if report.fault_detected else "MISSED"
        out.append(f"seeded fault: {report.fault} -> {status}")
    out.append(
        f"verdict: {report.verdict} "
        f"({report.transactions} txns, {report.operations} ops, "
        f"{report.lanes} lanes)"
    )
    grid = [
        ["schedule", "verdict", "pairs", "conflicting", "commuting", "findings"]
    ]
    for mode, summary in report.modes.items():
        grid.append(
            [
                mode,
                summary["verdict"],
                f"{summary['pairs_checked']:,}",
                f"{summary['conflicting_pairs']:,}",
                f"{summary['commuting_pairs']:,}",
                str(len(summary["findings"])),
            ]
        )
    out.append(_indent(_render_grid(grid)))
    if report.widening:
        conservative = report.widening["conservative"]
        widened = report.widening["widened"]
        out.append("")
        out.append(
            "commutativity widening: "
            f"{conservative['edges']} -> {widened['edges']} conflict edges, "
            f"{conservative['components']} -> {widened['components']} "
            f"components ({report.widening['newly_commuting_pairs']} pairs "
            "newly proven commuting, "
            f"{'sound' if report.widening['sound'] else 'UNSOUND'})"
        )
    if report.parity:
        out.append(
            "state parity: "
            f"{'bit-identical' if report.parity['bit_identical'] else 'DIVERGED'} "
            "across serial / batched / sanitized-batched "
            f"(sanitizer {'clean' if report.parity['sanitizer_clean'] else 'FINDINGS'})"
        )
    if report.overhead:
        out.append(
            "sanitizer overhead: "
            f"{format_duration(report.overhead['sanitizer_off_elapsed_ms'])} off vs "
            f"{format_duration(report.overhead['sanitizer_on_elapsed_ms'])} on "
            f"({'zero virtual-time overhead' if report.overhead['zero_virtual_overhead'] else 'OVERHEAD DETECTED'})"
        )
    if report.drill is not None:
        out.append("")
        out.append("race drill (swap-lane-ops):")
        static = report.drill["static"]
        out.append(
            f"  static certifier: {static['verdict']} "
            f"({len(static['findings'])} finding(s))"
        )
        for finding in static["findings"][:3]:
            lanes = ""
            if finding["lane_a"] is not None or finding["lane_b"] is not None:
                lanes = f" [lane {finding['lane_a']} vs lane {finding['lane_b']}]"
            out.append(
                f"    {finding['code']} {finding['table']}: "
                f"{finding['op_a']} vs {finding['op_b']}{lanes}"
            )
            if finding["witness"]:
                out.append(
                    "      witness interleaving: "
                    + " -> ".join(finding["witness"])
                )
        dynamic = report.drill["dynamic_findings"]
        codes: dict[str, int] = {}
        for finding in dynamic:
            codes[finding["code"]] = codes.get(finding["code"], 0) + 1
        summary = ", ".join(f"{code} x{n}" for code, n in sorted(codes.items()))
        out.append(
            f"  runtime sanitizer: {len(dynamic)} finding(s)"
            + (f" ({summary})" if summary else "")
        )
        out.append(
            "  integrator pre-flight: "
            + (
                "REFUSED to run the planted schedule"
                if report.drill["integrator_rejected"]
                else "RAN IT (fault missed)"
            )
        )
    return "\n".join(out)


def render_verify(report: "VerifyReport") -> str:
    """Render one plan-verification pass (``repro-bench --verify-plans``).

    The per-view verdict grid, the pay-once cache proof, the
    certificate-gated integration's parity verdicts and — for the
    corruption drill — the verifier's concrete counterexample.
    """
    out = ["== delta-rule verification =="]
    if report.fault is not None:
        status = "DETECTED" if report.fault_detected else "MISSED"
        out.append(f"seeded fault: {report.fault} -> {status}")
    out.append(f"verdict: {report.verdict} ({len(report.plans)} plans)")
    grid = [
        ["view", "class", "verdict", "scenarios", "dbs", "warn", "err"]
    ]
    for name, plan in report.plans.items():
        grid.append(
            [
                name,
                plan["classification"],
                plan["verdict"],
                f"{plan['scenarios']:,}",
                str(plan["databases"]),
                str(len(plan["warnings"])),
                str(len(plan["errors"])),
            ]
        )
    out.append(_indent(_render_grid(grid)))
    for name, plan in report.plans.items():
        for finding in [*plan["errors"], *plan["warnings"]]:
            out.append(f"  {finding['code']} [{finding['severity']}] {name}"
                       f" [{finding['kind']}]: {finding['message']}")
    if report.cache:
        cache = report.cache
        out.append(
            "certificate cache: "
            f"first pass {format_duration(cache['first_pass_virtual_ms'])} "
            f"({cache['first_pass_misses']} misses), second pass "
            f"{format_duration(cache['second_pass_virtual_ms'])} "
            f"({cache['second_pass_hits']} hits) -> "
            + ("pay-once" if cache["pay_once"] else "RE-VERIFIED (cache miss)")
        )
    if report.integration:
        integration = report.integration
        out.append(
            "integration pre-flight: "
            f"{integration['preflight_cache_hits']} cached certificates in "
            f"{format_duration(integration['preflight_virtual_ms'])}; "
            f"{integration['transactions']} txns applied with "
            f"{integration['plan_rules_applied']} plan rules in "
            f"{format_duration(integration['apply_virtual_ms'])}"
        )
        out.append(
            "state parity: "
            + (
                "views, aggregate and mirror all match recomputation"
                if integration["parity"]
                else "DIVERGED "
                + str(
                    {
                        k: integration[k]
                        for k in (
                            "view_parity",
                            "aggregate_parity",
                            "mirror_parity",
                        )
                    }
                )
            )
        )
    if report.drill is not None:
        out.append("")
        out.append("corruption drill (corrupt-delta-rule):")
        out.append(
            f"  verifier: {report.drill['verdict']} "
            f"({', '.join(report.drill['error_codes']) or 'no findings'}; "
            "counterexample "
            + (
                "replays divergent"
                if report.drill["counterexample_replays"]
                else "MISSING OR SPURIOUS"
            )
            + ")"
        )
        if report.drill["counterexample"]:
            out.append(_indent(report.drill["counterexample"], "    "))
        out.append(
            "  integrator pre-flight: "
            + (
                "REFUSED to drive the corrupted view"
                if report.drill["integrator_rejected"]
                else "DROVE IT (fault missed)"
            )
        )
        out.append(
            "  control: clean verifier says "
            + report.drill["clean_verifier_verdict"]
        )
    return "\n".join(out)


def _indent(text: str, prefix: str = "  ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())


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
