"""``repro-bench --flight``: the flight-recorded pipeline run.

Drives the seed workload through the flagship capture → queue → batched
apply pipeline in **windows**, with the full observability stack on.  The
pipeline and its stack are assembled once, by :class:`WindowedPipeline`
— the driver this pass and the ``--forensics`` drill
(:mod:`repro.bench.introspect`) both run their own schedule on:

* a :class:`~repro.obs.pipeline.PipelineRecorder` carrying a
  :class:`~repro.obs.flight.FlightRecorder` that samples lags, per-view
  staleness, watermarks, queue depth and the metrics registry on every
  shipped window;
* a :class:`~repro.obs.tracing.Tracer` whose span tree the
  :class:`~repro.obs.flight.CostAttributor` folds into the exact
  per-(stage × entity) cost ledger;
* an :class:`~repro.obs.flight.SLOEngine` with a freshness objective on
  the ``parts_catalog`` view and a latency objective on the end-to-end
  lag, evaluated at every window boundary.

The workload has a **seeded load spike** baked into its window schedule
(:data:`WINDOW_TXNS`): the apply side drains at most
:data:`APPLY_BUDGET` queue messages per window, so the spike windows
outrun the consumer, backlog builds, the view goes stale, and the
freshness SLO's burn-rate alert must fire — then clear once the cooldown
windows drain the backlog.  Everything runs on the virtual clock, so the
whole :class:`FlightReport` (timeline dump included) is byte-identical
across runs.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any

from ..core.capture import OpDeltaCapture
from ..core.stores import FileLogStore
from ..obs.context import observe
from ..obs.flight import (
    CostAttributor,
    FlightRecorder,
    FreshnessSLO,
    LatencySLO,
    SLOEngine,
    SLOFinding,
    TimeSeriesStore,
)
from ..obs.metrics import MetricsRegistry
from ..obs.pipeline import PipelineRecorder, observe_pipeline
from ..obs.tracing import Tracer
from ..semantics import SchemaCatalog, SemanticChecker
from ..transport.queue import PersistentQueue
from ..transport.shipper import enqueue_op_deltas
from .experiments.common import build_parts_warehouse, build_workload_database
from .experiments.compaction import build_analyzer

#: Version of the ``--flight --json`` document layout.  Bump on any
#: structural change to :meth:`FlightReport.to_dict`.
SCHEMA_VERSION = 1

#: Source transactions per window: steady state, a 3-window load spike,
#: then a cooldown during which the consumer drains the backlog.
WINDOW_TXNS = (2, 2, 2, 6, 6, 6, 2, 1, 1, 1)
#: Windows (0-based) that carry the seeded spike.
SPIKE_WINDOWS = (3, 4, 5)
#: Queue messages the consumer applies per window (its fixed capacity).
APPLY_BUDGET = 3
#: Rows seeded into the source ``parts`` table.
TABLE_ROWS = 200
#: Rows touched by each source transaction's UPDATE.
TXN_ROWS = 8

#: The freshness objective on the maintained view (virtual ms staleness).
FRESHNESS_TARGET_MS = 120.0
#: The latency objective on the end-to-end per-window mean lag.
LATENCY_TARGET_MS = 400.0
#: Burn-rate evaluation windows (virtual ms).
SHORT_WINDOW_MS = 60.0
LONG_WINDOW_MS = 300.0


@dataclass
class FlightReport:
    """One flight-recorded pipeline run, as plain data."""

    sampled: bool = True
    final_virtual_ms: float = 0.0
    #: Per-window timeline rows, in schedule order.
    windows: list[dict[str, Any]] = field(default_factory=list)
    #: SLO state transitions, in evaluation order (dicts of SLOFinding).
    findings: list[dict[str, Any]] = field(default_factory=list)
    #: The SLO engine's objectives + full finding history.
    slo: dict[str, Any] = field(default_factory=dict)
    #: The time-series store dump (empty when ``sampled`` is off).
    store: dict[str, Any] = field(default_factory=dict)
    #: The conservative cost ledger (:meth:`CostLedger.to_dict`).
    ledger: dict[str, Any] = field(default_factory=dict)

    @property
    def fired(self) -> list[dict[str, Any]]:
        return [f for f in self.findings if f["severity"] == "error"]

    @property
    def cleared(self) -> list[dict[str, Any]]:
        return [f for f in self.findings if f["code"] in ("SLO002", "SLO004")]

    @property
    def spike_detected(self) -> bool:
        """Did a freshness alert fire and later clear?"""
        fired = [f["at_ms"] for f in self.findings if f["code"] == "SLO001"]
        cleared = [f["at_ms"] for f in self.findings if f["code"] == "SLO002"]
        return bool(fired) and bool(cleared) and min(fired) < max(cleared)

    @property
    def conservative(self) -> bool:
        return bool(self.ledger.get("conservative"))

    @property
    def all_clear(self) -> bool:
        """No objective still firing at the end of the run."""
        return not any(
            objective["firing"] for objective in self.slo.get("objectives", ())
        )

    @property
    def exit_code(self) -> int:
        """0 = spike alert fired and cleared, and the ledger is exact."""
        if not self.sampled:
            return 0
        healthy = self.spike_detected and self.all_clear and self.conservative
        return 0 if healthy else 1

    def top(self, k: int = 8) -> list[dict[str, Any]]:
        """The k most expensive cost-ledger rows."""
        return list(self.ledger.get("rows", ()))[:k]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "sampled": self.sampled,
            "exit_code": self.exit_code,
            "spike_detected": self.spike_detected,
            "all_clear": self.all_clear,
            "conservative": self.conservative,
            "final_virtual_ms": self.final_virtual_ms,
            "windows": self.windows,
            "findings": self.findings,
            "slo": self.slo,
            "store": self.store,
            "ledger": self.ledger,
        }


def _window_workload(session, window: int, txns: int) -> None:
    """One window's source transactions (disjoint row ranges per txn)."""
    for txn in range(txns):
        low = ((window * 7 + txn) * TXN_ROWS) % TABLE_ROWS
        high = low + TXN_ROWS
        base = 800_000 + window * 100 + txn * 10
        session.begin()
        session.execute(
            f"UPDATE parts SET quantity = quantity + 1 "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        session.execute(
            f"UPDATE parts SET status = 'w{window}' "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        session.execute(
            "INSERT INTO parts (part_id, part_ref, part_no, description, "
            "status, quantity, price, last_modified, supplier_id) VALUES "
            f"({base}, {base}, 'PN-{base}', 'flight row', 'new', 1, 9.5, 0, 7)"
        )
        session.commit()


class WindowedPipeline:
    """The flagship pipeline under the full observability stack, once.

    Capture on a seeded ``parts`` source → drain → persistent queue →
    receive → conflict graph → batched apply → ack, observed by a metrics
    registry, a tracer, a pipeline recorder carrying the flight recorder,
    and an SLO engine on the freshness / latency objective pair.  The
    drills keep only what is theirs: the schedule (when to :meth:`produce`,
    how much to :meth:`consume`), the shape of a timeline row and the
    checks after the run.

    Entering builds the stack **inside** the ambient contexts, source
    first: the source database binds the tracer at construction, so
    capture-side spans reach the cost ledger.  With ``sample=False`` the
    flight recorder is left out of the recorder and :meth:`observe`
    samples nothing — the workload, tracer and pipeline are unchanged.
    """

    def __init__(self, name: str, table_rows: int, sample: bool = True) -> None:
        self._name = name
        self._table_rows = table_rows
        self._sample = sample
        self._analyzer = build_analyzer()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.flight = FlightRecorder(store=TimeSeriesStore(), metrics=self.metrics)
        self.engine = SLOEngine(
            self.flight.store,
            [
                FreshnessSLO(
                    "parts_catalog",
                    target_ms=FRESHNESS_TARGET_MS,
                    short_window_ms=SHORT_WINDOW_MS,
                    long_window_ms=LONG_WINDOW_MS,
                ),
                LatencySLO(
                    "end_to_end",
                    target_ms=LATENCY_TARGET_MS,
                    short_window_ms=SHORT_WINDOW_MS,
                    long_window_ms=LONG_WINDOW_MS,
                ),
            ],
        )

    def __enter__(self) -> "WindowedPipeline":
        name, analyzer = self._name, self._analyzer
        with ExitStack() as stack:
            stack.enter_context(observe(metrics=self.metrics, tracer=self.tracer))
            source, workload = build_workload_database(
                self._table_rows, name=f"{name}-source"
            )
            self.session = workload.session
            self.clock = source.clock
            initial_rows = list(source.table("parts").scan_values())
            self._store = FileLogStore(source)
            self.recorder = PipelineRecorder(
                clock=self.clock,
                metrics=self.metrics,
                flight=self.flight if self._sample else None,
            )
            stack.enter_context(observe_pipeline(self.recorder))
            capture = OpDeltaCapture(
                self.session,
                self._store,
                tables={"parts"},
                analyzer=analyzer,
                checker=SemanticChecker(SchemaCatalog.from_database(source)),
                source=f"{name}-source",
            )
            capture.attach()
            stack.callback(capture.detach)
            self.warehouse, self._integrator = build_parts_warehouse(
                f"{name}-wh", self.clock, initial_rows, analyzer
            )
            self._queue: PersistentQueue = PersistentQueue(
                self.clock, name=name, metrics=self.metrics
            )
            if self._sample:
                self.flight.watch_queue(self._queue)
            self._contexts = stack.pop_all()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._contexts.close()

    def produce(self) -> int:
        """Hand over what the source committed since the last call.

        The window travels as captured: this pipeline's view is full-width
        and its workload has nothing to coalesce, so there is no route /
        prune / compact step between the drain and the queue.
        """
        return enqueue_op_deltas(self._queue, self._store.drain())

    def consume(self, budget: int) -> int:
        """The consumer step: apply up to ``budget`` queued messages as one window."""
        window = self._queue.receive_window(limit=budget)
        if not window:
            return 0
        payloads = [payload for _id, payload in window]
        graph = self._analyzer.conflict_graph(payloads)
        self._integrator.integrate_batched(payloads, graph=graph)
        self._queue.ack_window(did for did, _payload in window)
        return len(window)

    def observe(self) -> tuple[float, list[SLOFinding]]:
        """Sample every series and evaluate the SLOs at the current instant."""
        now = self.clock.now
        if not self._sample:
            return now, []
        self.flight.sample_now(self.recorder, now)
        return now, self.engine.evaluate(now)

    @property
    def backlog(self) -> int:
        """Messages the consumer still owes: queued plus in flight."""
        return len(self._queue) + self._queue.in_flight


def run_flight(sample: bool = True) -> FlightReport:
    """Run the windowed spike scenario under the full flight stack.

    With ``sample=False`` the flight recorder is absent (no store, no SLO
    engine) but the workload, tracer and pipeline are identical — the
    obs-overhead bench asserts the final virtual time matches exactly.
    """
    report = FlightReport(sampled=sample)
    with WindowedPipeline("flight", TABLE_ROWS, sample=sample) as pipeline:
        recorder = pipeline.recorder

        def observe_window(
            txns: int = 0, spike: bool = False, enqueued: int = 0, applied: int = 0
        ) -> None:
            now, findings = pipeline.observe()
            view = recorder.views.get("parts_catalog")
            report.windows.append(
                {
                    "window": len(report.windows),
                    "at_ms": now,
                    "txns": txns,
                    "spike": spike,
                    "enqueued": enqueued,
                    "applied": applied,
                    "queue_depth": pipeline.backlog,
                    "staleness_ms": 0.0
                    if view is None
                    else view.staleness_ms(recorder.source_high_ms()),
                    "findings": [f.to_dict() for f in findings],
                }
            )

        for index, txns in enumerate(WINDOW_TXNS):
            _window_workload(pipeline.session, index, txns)
            enqueued = pipeline.produce()
            applied = pipeline.consume(APPLY_BUDGET)
            observe_window(txns, index in SPIKE_WINDOWS, enqueued, applied)
        # Post-schedule drain: the consumer keeps its per-window budget
        # until the backlog is gone, evaluating the SLOs each round so a
        # recovery is observed (and the alert clears) at a real instant.
        while pipeline.backlog:
            observe_window(applied=pipeline.consume(APPLY_BUDGET))
        # Quiet period: advance virtual time past the short burn window
        # with read-only warehouse queries, then evaluate once more — with
        # no fresh violating samples in the window, every alert must clear.
        reader = pipeline.warehouse.database.internal_session()
        quiet_until = pipeline.clock.now + SHORT_WINDOW_MS
        while pipeline.clock.now <= quiet_until:
            reader.execute("SELECT * FROM parts WHERE part_id = 0")
        if sample:
            observe_window()

    report.final_virtual_ms = pipeline.clock.now
    report.findings = [finding.to_dict() for finding in pipeline.engine.history]
    if sample:
        report.slo = pipeline.engine.to_dict()
        report.store = pipeline.flight.store.to_dict()
    report.ledger = CostAttributor().attribute(pipeline.tracer).to_dict()
    return report
