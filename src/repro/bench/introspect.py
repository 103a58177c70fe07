"""``repro-bench --forensics`` / ``--sql``: the system catalog, exercised.

Drives the flagship capture → queue → batched-apply pipeline through a
**seeded queue-stall drill**: mid-schedule the consumer stops draining
for several windows while the producer keeps committing, so ops pile up
on the persistent queue and queue-wait comes to dominate the tail.  The
pipeline and the full observability stack (recorder, flight series, SLO
engine, tracer) are :class:`~repro.bench.flight.WindowedPipeline`, the
assembly the ``--flight`` pass runs too; this module owns only the stall
schedule and the interrogation.  When the run settles the pass turns the
stores into a
:class:`~repro.obs.introspect.SystemCatalog` and interrogates it:

* **Causal blame** — ``sys.critical_path`` must attribute the p99
  end-to-end op to the ``queue`` stage (the drill's ground truth); a
  pipeline change that silently moves the bottleneck fails the drill.
* **Conservation** — ``SELECT kind, COUNT(*) FROM sys.events GROUP BY
  kind`` must reproduce the recorder's conservation balance sheet
  bit-for-bit.
* **Zero observer cost** — running catalog queries must not advance the
  observed pipeline's virtual clock.
* **Dogfood** — the :class:`~repro.obs.introspect.MetaObservatory`
  refreshes its monitoring views incrementally (mid-run and again after
  the drain), must converge (a third refresh ships an empty delta),
  must hold the meta-observation guard, and must stay digest-equal to
  recomputation.

``run_sql`` reuses the same deterministic drill as a fixture database
for ad-hoc ``--sql`` queries over all eight ``sys.*`` tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..analysis.verify import CertificateCache, DeltaRuleVerifier
from ..core.opdelta import PARSE_CACHE
from ..obs.flight import CostAttributor
from ..obs.introspect import (
    PROCESS_TABLES,
    CriticalPathAnalyzer,
    MetaObservatory,
    StoreBundle,
    SystemCatalog,
)
from .flight import WindowedPipeline

#: Version of the ``--forensics --json`` document layout.  Bump on any
#: structural change to :meth:`ForensicsReport.to_dict`.
SCHEMA_VERSION = 1

#: Source transactions per window: a steady trickle.
WINDOW_TXNS = (2, 2, 2, 2, 2, 2, 2, 2)
#: Windows (0-based) during which the consumer is stalled: the producer
#: keeps committing but nothing is drained — the seeded queue stall.
STALL_WINDOWS = (2, 3, 4, 5)
#: Queue messages the consumer applies per non-stalled window.
APPLY_BUDGET = 3
#: Rows seeded into the source ``parts`` table.
TABLE_ROWS = 120
#: Rows touched by each source transaction's UPDATE.
TXN_ROWS = 6

#: Minimum fraction of the p99 op's end-to-end latency the queue
#: segment must explain for the drill to call the stall proven.  Natural
#: per-window batching alone leaves queue-wait near ~60% of the tail;
#: the seeded stall pushes it above 90% — the threshold separates the
#: two regimes, so a stall-free pipeline fails the drill.
STALL_QUEUE_SHARE = 0.8

#: The conservation query the acceptance criterion names.
CONSERVATION_SQL = "SELECT kind, COUNT(*) FROM sys.events GROUP BY kind"

#: Lifecycle event kind -> conservation bucket (events that settle ops).
_KIND_TO_BUCKET = {
    "captured": "captured",
    "applied": "applied",
    "pruned": "pruned",
    "compacted_away": "absorbed",
    "rejected": "rejected",
}


@dataclass
class ForensicsReport:
    """One queue-stall drill plus every catalog check, as plain data."""

    final_virtual_ms: float = 0.0
    #: Per-window timeline rows, in schedule order.
    windows: list[dict[str, Any]] = field(default_factory=list)
    #: Rows materialised per ``sys.*`` table at the end of the run.
    table_rows: dict[str, int] = field(default_factory=dict)
    #: Conservation: the SQL-derived buckets, the recorder's, and a flag.
    conservation_sql: dict[str, int] = field(default_factory=dict)
    conservation_auditor: dict[str, int] = field(default_factory=dict)
    conservation_matches: bool = False
    #: The critical-path summary (windows / views / p99 blame).
    forensics: dict[str, Any] = field(default_factory=dict)
    #: Stage blamed for the p99 end-to-end op ("" when no ops applied).
    p99_stage: str = ""
    #: Fraction of the p99 op's end-to-end latency spent queue-waiting.
    p99_queue_share: float = 0.0
    #: Catalog queries left the observed clock untouched.
    zero_cost_ok: bool = False
    #: The per-(stage x entity) cost ledger (:meth:`CostLedger.to_dict`)
    #: — the same rows ``sys.cost`` serves, embedded so the bench gate's
    #: ``--explain`` can diff cost between artifact and baseline.
    ledger: dict[str, Any] = field(default_factory=dict)
    #: Monitoring-view refreshes (mid-run, post-drain, convergence probe).
    meta_refreshes: list[dict[str, Any]] = field(default_factory=list)
    #: The convergence probe shipped an empty delta.
    meta_converged: bool = False
    meta_guard_ok: bool = False
    meta_digests_ok: bool = False
    #: Ad-hoc query result (``--sql``), absent for the plain drill.
    query: dict[str, Any] | None = None

    @property
    def stall_blamed(self) -> bool:
        return (
            self.p99_stage == "queue"
            and self.p99_queue_share >= STALL_QUEUE_SHARE
        )

    @property
    def exit_code(self) -> int:
        """0 = the catalog told the truth about the seeded stall."""
        healthy = (
            self.stall_blamed
            and self.conservation_matches
            and self.zero_cost_ok
            and self.meta_converged
            and self.meta_guard_ok
            and self.meta_digests_ok
        )
        return 0 if healthy else 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "exit_code": self.exit_code,
            "stall_blamed": self.stall_blamed,
            "p99_stage": self.p99_stage,
            "p99_queue_share": self.p99_queue_share,
            "conservation_matches": self.conservation_matches,
            "zero_cost_ok": self.zero_cost_ok,
            "meta_converged": self.meta_converged,
            "meta_guard_ok": self.meta_guard_ok,
            "meta_digests_ok": self.meta_digests_ok,
            "final_virtual_ms": self.final_virtual_ms,
            "windows": self.windows,
            "table_rows": self.table_rows,
            "conservation_sql": self.conservation_sql,
            "conservation_auditor": self.conservation_auditor,
            "forensics": self.forensics,
            "ledger": self.ledger,
            "meta_refreshes": self.meta_refreshes,
            "query": self.query,
        }


def _window_workload(session: Any, window: int, txns: int) -> None:
    """One window's source transactions (disjoint row ranges per txn)."""
    for txn in range(txns):
        low = ((window * 5 + txn) * TXN_ROWS) % TABLE_ROWS
        high = low + TXN_ROWS
        base = 900_000 + window * 100 + txn * 10
        session.begin()
        session.execute(
            f"UPDATE parts SET quantity = quantity + 1 "
            f"WHERE part_ref >= {low} AND part_ref < {high}"
        )
        session.execute(
            "INSERT INTO parts (part_id, part_ref, part_no, description, "
            "status, quantity, price, last_modified, supplier_id) VALUES "
            f"({base}, {base}, 'PN-{base}', 'forensics row', 'new', 1, 4.5, 0, 3)"
        )
        session.commit()


def _conservation_from_sql(catalog: SystemCatalog) -> dict[str, int]:
    """Fold the conservation query's rows into the auditor's buckets."""
    buckets = {
        "captured": 0,
        "applied": 0,
        "pruned": 0,
        "absorbed": 0,
        "rejected": 0,
        "in_flight": 0,
    }
    for kind, count in catalog.query(CONSERVATION_SQL).rows:
        bucket = _KIND_TO_BUCKET.get(kind)
        if bucket is not None:
            buckets[bucket] += int(count)
    buckets["in_flight"] = buckets["captured"] - (
        buckets["applied"]
        + buckets["pruned"]
        + buckets["absorbed"]
        + buckets["rejected"]
    )
    return buckets


def run_forensics(sql: str | None = None) -> ForensicsReport:
    """Run the queue-stall drill and interrogate the system catalog.

    With ``sql`` set, the same deterministic drill runs and the report
    additionally carries that query's result over the populated stores.
    """
    report = ForensicsReport()
    # Hermetic run: the process-wide parse and certificate caches make a
    # second in-process run cheaper than the first (warm lookups, skipped
    # small-scope proofs), which would leak into the hit/miss counters,
    # the cost ledger and the sampled series.  Reset the parse cache and
    # give the observatory a private certificate cache so every run pays
    # identical work and the report is byte-reproducible.
    PARSE_CACHE.clear()
    verifier = DeltaRuleVerifier(cache=CertificateCache())

    with WindowedPipeline("forensics", TABLE_ROWS) as pipeline:
        recorder = pipeline.recorder
        bundle = StoreBundle(
            recorder=recorder,
            metrics=pipeline.metrics,
            series=pipeline.flight.store,
            slo=pipeline.engine,
        )
        catalog = SystemCatalog(bundle)
        observatory = MetaObservatory(catalog, verifier=verifier)

        def observe_window(
            txns: int = 0, stalled: bool = False, enqueued: int = 0, applied: int = 0
        ) -> None:
            now, _findings = pipeline.observe()
            report.windows.append(
                {
                    "window": len(report.windows),
                    "at_ms": now,
                    "txns": txns,
                    "stalled": stalled,
                    "enqueued": enqueued,
                    "applied": applied,
                    "queue_depth": pipeline.backlog,
                }
            )

        for index, txns in enumerate(WINDOW_TXNS):
            _window_workload(pipeline.session, index, txns)
            enqueued = pipeline.produce()
            stalled = index in STALL_WINDOWS
            applied = 0 if stalled else pipeline.consume(APPLY_BUDGET)
            observe_window(txns, stalled, enqueued, applied)
        # Mid-run refresh: the backlog is at its peak, so the monitoring
        # views first materialise the stall (all inserts).
        report.meta_refreshes.append(observatory.refresh().to_dict())
        # Drain the backlog at the normal budget.
        while pipeline.backlog:
            observe_window(applied=pipeline.consume(APPLY_BUDGET))

    clock = pipeline.clock
    report.final_virtual_ms = clock.now
    bundle.ledger = CostAttributor().attribute(pipeline.tracer)
    report.ledger = bundle.ledger.to_dict()

    # Post-drain refresh updates the backlog rows in place; the probe
    # refresh right after must ship an empty delta (convergence).
    post = observatory.refresh()
    probe = observatory.refresh()
    report.meta_refreshes.append(post.to_dict())
    report.meta_refreshes.append(probe.to_dict())
    report.meta_converged = probe.rows_changed == 0
    report.meta_guard_ok = all(
        refresh["guard_ok"] for refresh in report.meta_refreshes
    )
    report.meta_digests_ok = all(
        refresh["digests_ok"] for refresh in report.meta_refreshes
    )
    observatory.close()

    # Zero observer cost: interrogating the catalog must not move the
    # observed pipeline's clock.
    clock_before = clock.now
    for name in catalog.table_names:
        if name in PROCESS_TABLES:
            continue  # not one of the drill's stores
        report.table_rows[name] = int(
            catalog.query(f"SELECT COUNT(*) FROM {name}").scalar()
        )
    report.conservation_sql = _conservation_from_sql(catalog)
    report.conservation_auditor = recorder.conservation()
    report.conservation_matches = (
        report.conservation_sql == report.conservation_auditor
    )

    forensics = CriticalPathAnalyzer(recorder)
    report.forensics = forensics.to_dict()
    p99 = forensics.p99_blame()
    report.p99_stage = "" if p99 is None else p99.critical_stage
    if p99 is not None and p99.end_to_end_ms > 0:
        report.p99_queue_share = p99.queue_ms / p99.end_to_end_ms

    if sql is not None:
        result = catalog.query(sql)
        report.query = {
            "sql": sql,
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
        }
    report.zero_cost_ok = clock.now == clock_before
    return report


def run_sql(sql: str) -> ForensicsReport:
    """The ``--sql`` entry point: the drill as a deterministic fixture."""
    return run_forensics(sql=sql)
