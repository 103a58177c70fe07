"""One (workload, rep): the closed-loop, one-client window driver.

Runs inside a fresh subprocess (see ``run.py``) so the process-wide caches
of the library start empty.  Per window it runs the window's source
transactions back to back, then the maintenance step, then the OLAP mix —
single process, single thread, each request sent only after the previous
one completed.  Window 0 is warm-up and belongs to set-up.

Host time is read only here and in ``spans.py``, ``probes.py`` and
``calibration.py``; the library keeps its virtual clock (REPRO001).
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import statistics
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.obs import NULL_TRACER, MetricsRegistry, observe
from repro.obs.introspect import StoreBundle, SystemCatalog
from repro.obs.pipeline import PipelineAuditor, PipelineRecorder, observe_pipeline

import probes
from calibration import REFERENCE_MS, calibrate
from scenarios import SCENARIOS, Scenario, Stream, answer_matches, reference_answer
from spans import (
    NullRecorder,
    SpanRecorder,
    chrome_trace,
    coverage,
    render_self_times,
    self_times,
)

#: The catalog query timed after every ``olap_mostly`` window.
CATALOG_SQL = "SELECT kind, COUNT(*) FROM sys.events GROUP BY kind"

#: Registry counters summed over the timed windows of the traced rep
#: (deltas at window boundaries, so set-up and verification scans stay out).
REGISTRY_COUNTERS = (
    "engine.table.rows_scanned",
    "engine.buffer.hit",
    "engine.buffer.miss",
    "engine.buffer.eviction",
    "engine.disk.read",
    "engine.disk.write",
    "engine.wal.bytes",
    "engine.wal.force",
    "capture.opdelta.statements",
    "capture.opdelta.before_images",
    "core.opdelta.parse_cache_hits",
    "core.opdelta.parse_cache_misses",
    "analysis.conflict.edges",
    "analysis.certify.obligations_checked",
    "analysis.certify.schedules_checked",
    "transport.network.bytes",
    "transport.queue.bytes",
    "extract.timestamp.rows_scanned",
    "extract.timestamp.rows_emitted",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class WindowTimes:
    """Host-time measurements of one window, as read off the clock."""

    txn_ns: list[int] = field(default_factory=list)
    olap_ns: list[int] = field(default_factory=list)
    source_ns: int = 0
    maintenance_ns: int = 0
    olap_total_ns: int = 0
    virtual_ms: float = 0.0
    rows_changed: int = 0
    #: Seconds the untimed verification took after the window.
    verify_s: float = 0.0
    #: Reference speed / box speed while the window ran (see calibration.py).
    speed: float = 1.0

    @property
    def wall_ns(self) -> int:
        return self.source_ns + self.maintenance_ns + self.olap_total_ns


def run_window(
    scenario: Scenario, stream: Stream, window: int, outcome: dict[str, Any]
) -> WindowTimes:
    """Source transactions, maintenance, OLAP mix, then (untimed) checks."""
    spans = scenario.spans
    now = time.perf_counter_ns
    clock = scenario.clock
    times = WindowTimes()
    attempted = failed = 0
    misses: list[str] = []
    virtual_start = clock.now
    with spans.span("pipeline.window"):
        window_start = now()
        with spans.span("pipeline.source"):
            for statements in stream.windows[window]:
                attempted += len(statements)
                started = now()
                try:
                    times.rows_changed += scenario.source_txn(statements)
                except ReproError as exc:
                    scenario.abort_source_txn()
                    failed += len(statements)
                    misses.append(f"source transaction raised: {exc}")
                times.txn_ns.append(now() - started)
        source_end = now()
        with spans.span("pipeline.maintenance"):
            try:
                attempted += scenario.maintain()
            except ReproError as exc:
                # The window's deltas are lost; the digest check below
                # then fails this and every later window.
                misses.append(f"maintenance raised: {exc}")
        maintenance_end = now()
        answers = []
        with spans.span("pipeline.olap"):
            for name, sql, param in stream.queries[window]:
                attempted += 1
                started = now()
                try:
                    with spans.span("sql.executor.select"):
                        rows = scenario.olap.execute(sql).rows
                except ReproError as exc:
                    failed += 1
                    misses.append(f"query {name} raised: {exc}")
                    rows = None
                times.olap_ns.append(now() - started)
                answers.append((name, param, rows))
        olap_end = now()
    times.virtual_ms = clock.now - virtual_start
    times.source_ns = source_end - window_start
    times.maintenance_ns = maintenance_end - source_end
    times.olap_total_ns = olap_end - maintenance_end

    # ---- untimed from here: the correctness gate
    state_misses, mirror = scenario.verify_state()
    if state_misses:
        # A diverged window fails all of its ops, not one.
        failed = attempted
        misses.extend(state_misses)
    else:
        for name, param, rows in answers:
            if rows is None:
                continue
            expected = reference_answer(
                name, param, mirror, scenario.supplier_keys
            )
            if not answer_matches(name, rows, expected):
                failed += 1
                misses.append(f"query {name} differs from the reference")
    outcome["attempted"] += attempted
    outcome["failed"] += failed
    outcome["misses"].extend(f"window {window}: {m}" for m in misses)
    times.verify_s = (now() - olap_end) / 1e9
    return times


def end_to_end(windows: list[WindowTimes], normalised: bool) -> dict[str, float]:
    """The timing metrics of one rep: medians over its timed windows.

    ``normalised`` scales every window's timings to reference speed first.
    """
    def scaled(window: WindowTimes, ns: float) -> float:
        return ns * window.speed if normalised else ns

    txn = [scaled(w, ns) for w in windows for ns in w.txn_ns]
    olap = [scaled(w, ns) for w in windows for ns in w.olap_ns]
    return {
        "delta_rows_per_s": statistics.median(
            _ratio(w.rows_changed, scaled(w, w.source_ns + w.maintenance_ns) / 1e9)
            for w in windows
        ),
        "source_txn_p50_ms": statistics.median(txn) / 1e6,
        "freshness_p50_ms": statistics.median(
            scaled(w, w.maintenance_ns) for w in windows
        ) / 1e6,
        "olap_query_p50_ms": statistics.median(olap) / 1e6,
    }


def run_rep(
    workload: str,
    seed: int,
    scale: float,
    traced: bool,
    spawned_ns: int,
    out_dir: Path,
    setup_readings: list[float],
) -> dict[str, Any]:
    """Run one rep and return its record (see ``run.py`` for the schema).

    ``setup_readings`` are the calibration readings the process took while
    starting up; set-up is scaled by them and the two taken here.
    """
    scenario_cls = SCENARIOS[workload]
    timed = scenario_cls.timed_windows(scale)
    harness_start = time.perf_counter()
    # Window 0 is the extra warm-up window.
    stream = scenario_cls.generate(random.Random(seed), timed + 1)
    generator_s = time.perf_counter() - harness_start

    spans = SpanRecorder() if traced else NullRecorder()
    registry = MetricsRegistry() if traced else None
    outcome: dict[str, Any] = {"attempted": 0, "failed": 0, "misses": []}
    windows: list[WindowTimes] = []
    counters = dict.fromkeys(REGISTRY_COUNTERS, 0.0)
    catalog_ms: list[float] = []

    with ExitStack() as stack:
        if registry is not None:
            # One ambient registry for every component; the library's own
            # tracer stays off — its spans are virtual-time and nobody
            # here reads them.
            stack.enter_context(observe(metrics=registry, tracer=NULL_TRACER))
        scenario = scenario_cls(spans, registry)
        scenario.setup(stream)
        recorder = PipelineRecorder(clock=scenario.clock, metrics=registry)
        stack.enter_context(observe_pipeline(recorder))
        catalog = SystemCatalog(StoreBundle(recorder=recorder, metrics=registry))

        setup_readings.append(calibrate())
        spans.window = 0
        warm_up = run_window(scenario, stream, 0, outcome)
        readings = [calibrate()]
        gc_before = sum(stat["collections"] for stat in gc.get_stats())
        scenario.tally.clear()
        store_bytes_before = scenario.store_bytes()
        first_timed_ns = time.time_ns()
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        for window in range(1, timed + 1):
            spans.window = window
            if registry is not None:
                before = {name: registry.total(name) for name in counters}
            times = run_window(scenario, stream, window, outcome)
            if registry is not None:
                for name in counters:
                    counters[name] += registry.total(name) - before[name]
            if scenario.queries_catalog:
                started = time.perf_counter_ns()
                with spans.span("obs.catalog"):
                    catalog.query(CATALOG_SQL)
                catalog_ms.append((time.perf_counter_ns() - started) / 1e6)
            # One reading between windows brackets both neighbours.
            readings.append(calibrate())
            times.speed = REFERENCE_MS / ((readings[-2] + readings[-1]) / 2)
            windows.append(times)
        cpu_s = time.process_time() - cpu_start
        wall_s = time.perf_counter() - wall_start
        gc_collections = (
            sum(stat["collections"] for stat in gc.get_stats()) - gc_before
        )

        audit_start = time.perf_counter_ns()
        audit = PipelineAuditor(recorder).audit(
            conflict_components=scenario.components or None
        )
        audit_ms = (time.perf_counter_ns() - audit_start) / 1e6
        outcome["attempted"] += 1
        if audit.verdict != "CLEAN" or not audit.conservation_holds:
            outcome["failed"] += 1
            outcome["misses"].append(
                "pipeline audit: "
                + "; ".join(f.render() for f in audit.findings[:3])
            )
        if not catalog_ms:
            started = time.perf_counter_ns()
            catalog.query(CATALOG_SQL)
            catalog_ms.append((time.perf_counter_ns() - started) / 1e6)

    # Set-up is the system's: the harness's own generator, window-0
    # verification and calibration readings are taken back out of it.
    setup_readings.append(readings[0])
    harness_s = generator_s + warm_up.verify_s + sum(setup_readings) / 1e3
    setup_s = (first_timed_ns - spawned_ns) / 1e9 - harness_s
    setup_speed = REFERENCE_MS / statistics.mean(setup_readings)
    virtual_ms = [w.virtual_ms for w in windows]
    record: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "windows": timed,
        "input_sha256": stream.sha256,
        "virtual_fingerprint": hashlib.sha256(
            repr(virtual_ms).encode("utf-8")
        ).hexdigest(),
        "samples": {
            "source_txn": sum(len(w.txn_ns) for w in windows),
            "freshness": len(windows),
            "olap": sum(len(w.olap_ns) for w in windows),
        },
        "ops_attempted": outcome["attempted"],
        "ops_failed": outcome["failed"],
        "misses": outcome["misses"][:10],
        "noisy": abs(readings[-1] - readings[0])
        > 0.10 * min(readings[-1], readings[0]),
        "speed_index": statistics.median(readings) / REFERENCE_MS,
    }
    if traced:
        table = self_times(spans.spans)
        record["span_coverage"] = coverage(spans.spans)
        record["self_time"] = table
        per_layer = _per_layer(scenario, windows, table, spans, counters)
        per_layer.update(probes.run_all())
        per_layer.update({
            "core.store.bytes": scenario.store_bytes() - store_bytes_before,
            "obs.catalog.query_ms": statistics.median(catalog_ms),
            "obs.auditor.audit_ms": audit_ms,
            "obs.recorder.events": sum(recorder.log.counts.values()),
            "harness.cpu_share": _ratio(cpu_s, wall_s),
            "harness.calibration_ms": statistics.median(readings),
            "harness.generator_s": generator_s,
            "harness.gc_collections": gc_collections,
        })
        record["per_layer"] = per_layer
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{workload}.trace.json").write_text(
            chrome_trace(spans.spans, f"host-bench {workload} seed {seed}")
        )
        (out_dir / f"{workload}.selftime.txt").write_text(
            render_self_times(table) + "\n"
        )
    record["end_to_end"] = {
        "setup_s": setup_s * setup_speed,
        **end_to_end(windows, normalised=True),
        # Read last: the rep's high-water mark, verification included.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "virtual_ms": sum(virtual_ms),
    }
    #: The same timings as read off the clock, before scaling.
    record["as_measured"] = {
        "setup_s": setup_s, **end_to_end(windows, normalised=False)
    }
    return record


#: Per-layer counts that are the scenario's report tallies, name for name.
TALLIED = (
    "analysis.conflict.components",
    "compaction.ops_in",
    "compaction.ops_out",
    "compaction.bytes_in",
    "compaction.bytes_out",
    "columnar.statements",
    "columnar.fallbacks",
    "warehouse.apply.statements",
    "warehouse.apply.rows",
    "warehouse.value_apply.statements",
    "extraction.trigger.drain.rows_emitted",
    "extraction.timestamp.rows_emitted",
    "extraction.logscan.rows_emitted",
    "extraction.snapshot_diff.rows_emitted",
)
#: Spans reported as `<name>.busy_s`; the second group also as `<name>.calls`.
BUSY_SPANS = (
    "engine.snapshot",
    "core.store.drain",
    "compaction.compact",
    "transport.ship",
    "transport.queue",
    "extraction.trigger.drain",
    "extraction.timestamp",
    "extraction.logscan",
    "extraction.snapshot_diff",
    "warehouse.value_apply",
)
BUSY_AND_CALLS_SPANS = (
    "sql.executor.dml",
    "sql.executor.select",
    "analysis.conflict_graph",
    "warehouse.apply",
)


def _per_layer(
    scenario: Scenario,
    windows: list[WindowTimes],
    table: dict[str, dict[str, float]],
    spans: SpanRecorder,
    counters: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics from spans, report tallies and registry counters."""
    tally = scenario.tally

    def busy(name: str) -> float:
        return table.get(name, {}).get("busy_s", 0.0)

    # Window 0's apply pays the pre-flights (plan certificates, kernel
    # compiles) every later window reuses.
    first_apply_ns = sum(
        span[2] - span[1]
        for span in spans.spans
        if span[4] == 0 and span[0] in ("warehouse.apply", "warehouse.value_apply")
    )
    wall_ns = sum(w.wall_ns for w in windows) or 1
    rows_changed = sum(w.rows_changed for w in windows)
    txn_ns = [ns for w in windows for ns in w.txn_ns]
    olap_ns = [ns for w in windows for ns in w.olap_ns]
    metrics = {name: tally[name] for name in TALLIED}
    for name in BUSY_SPANS + BUSY_AND_CALLS_SPANS:
        metrics[f"{name}.busy_s"] = busy(name)
    for name in BUSY_AND_CALLS_SPANS:
        metrics[f"{name}.calls"] = table.get(name, {}).get("calls", 0)
    metrics.update({
        "engine.table.rows_scanned": counters["engine.table.rows_scanned"],
        "engine.rows_scanned_per_row_changed": _ratio(
            counters["engine.table.rows_scanned"], rows_changed
        ),
        "engine.buffer.hit_ratio": _ratio(
            counters["engine.buffer.hit"],
            counters["engine.buffer.hit"] + counters["engine.buffer.miss"],
        ),
        "engine.buffer.evictions": counters["engine.buffer.eviction"],
        "engine.disk.reads": counters["engine.disk.read"],
        "engine.disk.writes": counters["engine.disk.write"],
        "engine.wal.bytes": counters["engine.wal.bytes"],
        "engine.wal.forces": counters["engine.wal.force"],
        "core.capture.statements": counters["capture.opdelta.statements"],
        "core.capture.before_images": counters["capture.opdelta.before_images"],
        "core.parse_cache.hit_ratio": _ratio(
            counters["core.opdelta.parse_cache_hits"],
            counters["core.opdelta.parse_cache_hits"]
            + counters["core.opdelta.parse_cache_misses"],
        ),
        "analysis.conflict.edges": counters["analysis.conflict.edges"],
        "analysis.certify.obligations_checked": counters[
            "analysis.certify.obligations_checked"
        ],
        "analysis.certify.schedules_checked": counters[
            "analysis.certify.schedules_checked"
        ],
        "transport.bytes": counters["transport.network.bytes"]
        + counters["transport.queue.bytes"],
        "extraction.timestamp.rows_scanned_per_row_emitted": _ratio(
            counters["extract.timestamp.rows_scanned"],
            counters["extract.timestamp.rows_emitted"],
        ),
        "columnar.compiled_ratio": _ratio(
            tally["columnar.statements"],
            tally["columnar.statements"] + tally["columnar.fallbacks"],
        ),
        "columnar.kernel_cache_hit_ratio": _ratio(
            tally["columnar.kernel_cache_hits"],
            tally["columnar.kernel_cache_hits"]
            + tally["columnar.kernel_compiles"],
        ),
        "warehouse.apply.ns_per_row": _ratio(
            busy("warehouse.apply") * 1e9, tally["warehouse.apply.rows"]
        ),
        "warehouse.apply.first_window_ms": first_apply_ns / 1e6,
        "warehouse.rule_cache_hit_ratio": _ratio(
            tally["warehouse.rule_cache_hits"], tally["warehouse.rule_lookups"]
        ),
        "warehouse.view.rows": (
            scenario.view.table.num_rows if scenario.view is not None else 0
        ),
        "pipeline.source_txn_p95_ms": _percentile(txn_ns, 0.95) / 1e6,
        "pipeline.olap_p95_ms": _percentile(olap_ns, 0.95) / 1e6,
        "pipeline.freshness_max_ms": max(w.maintenance_ns for w in windows) / 1e6,
        "pipeline.window_wall_p50_ms": statistics.median(
            w.wall_ns for w in windows
        ) / 1e6,
        "pipeline.source_share": sum(w.source_ns for w in windows) / wall_ns,
        "pipeline.maintenance_share": sum(w.maintenance_ns for w in windows)
        / wall_ns,
        "pipeline.olap_share": sum(w.olap_total_ns for w in windows) / wall_ns,
    })
    return metrics
