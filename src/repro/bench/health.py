"""``repro-bench --health``: audited end-to-end pipeline health.

Runs the seed compaction workload through three capture-to-warehouse
pipelines, each under its own :class:`~repro.obs.pipeline.PipelineRecorder`:

* **plain** — the captured window shipped verbatim
  (:meth:`~repro.transport.shipper.FileShipper.ship_op_deltas`) and applied
  one warehouse transaction per source commit;
* **batched** — the window through the persistent queue, applied one
  warehouse transaction per conflict component
  (:meth:`~repro.warehouse.OpDeltaIntegrator.integrate_batched`);
* **compacted** — the window rewritten by
  :class:`~repro.compaction.Coalescer` first, then queued and batch-applied
  (the flagship pipeline).

Each pipeline is then audited (:class:`~repro.obs.pipeline.PipelineAuditor`):
conservation — ``captured = applied + pruned + absorbed + rejected`` —
duplicate/reorder checks, and a :class:`~repro.obs.pipeline.StateDigest`
comparison of the warehouse mirror against the source table.  Everything
runs on the virtual clock, so the resulting :class:`HealthReport` is
byte-identical across runs.

``--fault drop-queue-message`` seeds a failure into the flagship pipeline:
the consumer loses one queue message but acks the whole window (an
ack-then-crash consumer).  A healthy auditor must *detect* it — a
positioned AUD001 gap plus an AUD004 digest divergence — so the exit code
inverts: with a fault injected, success means findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..compaction import Coalescer
from ..core.capture import OpDeltaCapture
from ..core.stores import FileLogStore
from ..obs.pipeline import (
    PipelineAuditor,
    PipelineRecorder,
    PipelineSnapshot,
    StateDigest,
    build_snapshot,
    observe_pipeline,
)
from ..transport.network import NetworkModel
from ..transport.queue import PersistentQueue
from ..transport.shipper import FileShipper, enqueue_op_deltas
from ..workloads.records import parts_schema, strip_timestamp
from .experiments.common import build_parts_warehouse, build_workload_database
from .experiments.compaction import build_analyzer, _run_workload

#: Version of the ``--health --json`` document layout.  Bump on any
#: structural change to :meth:`HealthReport.to_dict`.
SCHEMA_VERSION = 1

#: Pipelines run by one health pass, in report order.
MODES = ("plain", "batched", "compacted")
#: The pipeline whose snapshot headlines the report (and takes the fault).
FLAGSHIP = "compacted"
#: Injectable faults (``repro-bench --health --fault ...``).
FAULTS = ("drop-queue-message",)

# The seed window of the health and certify passes.  Smaller than the
# compaction experiment's defaults: the health pass runs three whole
# pipelines and is part of the smoke path.
TABLE_ROWS = 400
FOLD_TXNS = 3
CHURN_TXNS = 2
SCRATCH_TXNS = 2
INSERTS_PER_TXN = 4
TXN_ROWS = 10


@dataclass
class HealthReport:
    """One audited health pass over all pipelines, as plain data."""

    fault: str | None = None
    #: Mode name -> audited snapshot, in :data:`MODES` order.
    modes: dict[str, PipelineSnapshot] = field(default_factory=dict)

    @property
    def snapshot(self) -> PipelineSnapshot:
        """The flagship pipeline's snapshot."""
        return self.modes[FLAGSHIP]

    @property
    def verdict(self) -> str:
        """``CLEAN`` only when every pipeline audited clean."""
        verdicts = [s.verdict for s in self.modes.values()]
        return "CLEAN" if all(v == "CLEAN" for v in verdicts) else "FINDINGS"

    @property
    def fault_detected(self) -> bool:
        """Did the auditor flag the seeded fault (flagship errors)?"""
        return any(
            finding["severity"] == "error" for finding in self.snapshot.findings
        )

    @property
    def exit_code(self) -> int:
        """0 = healthy pipeline, or: seeded fault correctly detected."""
        if self.fault is not None:
            return 0 if self.fault_detected else 1
        return 0 if self.verdict == "CLEAN" else 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "fault": self.fault,
            "verdict": self.verdict,
            "fault_detected": self.fault_detected if self.fault else None,
            "modes": {name: snap.to_dict() for name, snap in self.modes.items()},
        }


def run_health(fault: str | None = None) -> HealthReport:
    """Run and audit every pipeline; seed ``fault`` into the flagship."""
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; available: {', '.join(FAULTS)}")
    report = HealthReport(fault=fault)
    for mode in MODES:
        report.modes[mode] = _run_mode(
            mode, fault=fault if mode == FLAGSHIP else None
        )
    return report


def seed_source(name: str):
    """The smoke-sized seed ``parts`` source: (database, session, rows)."""
    source, workload = build_workload_database(TABLE_ROWS, name=name)
    initial_rows = list(source.table("parts").scan_values())
    return source, workload.session, initial_rows


def capture_seed_window(source, session, analyzer, extend=None):
    """Run the seed workload under Op-Delta capture; the drained window.

    ``extend(session)`` appends the caller's own transactions while the
    capture is still attached (the certify pass adds its partition and
    hot-range pairs this way).
    """
    store = FileLogStore(source)
    capture = OpDeltaCapture(
        session, store, tables={"parts"}, analyzer=analyzer, source=source.name
    )
    capture.attach()
    _run_workload(
        session, FOLD_TXNS, CHURN_TXNS, SCRATCH_TXNS, INSERTS_PER_TXN, TXN_ROWS
    )
    if extend is not None:
        extend(session)
    capture.detach()
    return store.drain()


def _run_mode(mode: str, fault: str | None = None) -> PipelineSnapshot:
    """One capture-to-warehouse pipeline under its own recorder, audited."""
    source, session, initial_rows = seed_source(f"health-{mode}")
    schema = parts_schema()
    analyzer = build_analyzer()
    recorder = PipelineRecorder(clock=source.clock)
    components = None
    with observe_pipeline(recorder):
        groups = capture_seed_window(source, session, analyzer)

        warehouse, integrator = build_parts_warehouse(
            f"health-wh-{mode}", source.clock, initial_rows, analyzer
        )

        if mode == "plain":
            shipper = FileShipper(NetworkModel(source.clock))
            shipper.ship_op_deltas(groups)
            integrator.integrate(groups)
        else:
            window_groups = groups
            if mode == "compacted":
                coalescer = Coalescer(analyzer=analyzer, clock=source.clock)
                window_groups, _compaction = coalescer.compact_window(groups)
            queue: PersistentQueue = PersistentQueue(
                source.clock, name=f"health-{mode}"
            )
            enqueue_op_deltas(queue, window_groups)
            window = queue.receive_window(limit=len(window_groups) + 1)
            payloads = [payload for _id, payload in window]
            if fault == "drop-queue-message":
                # The consumer loses the first message but still acks the
                # whole window: an ack-then-crash bug the audit must catch.
                payloads = payloads[1:]
            graph = analyzer.conflict_graph(payloads)
            integrator.integrate_batched(payloads, graph=graph)
            queue.ack_window(delivery_id for delivery_id, _payload in window)
            components = graph.components

    audit = PipelineAuditor(recorder).audit(conflict_components=components)
    expected = StateDigest.from_rows(
        strip_timestamp(
            schema, list(source.table("parts").scan_values())
        )
    )
    actual = StateDigest.from_rows(
        strip_timestamp(
            schema, list(warehouse.database.table("parts").scan_values())
        )
    )
    PipelineAuditor(recorder).check_digest(
        audit, f"{mode}:parts-mirror", expected, actual
    )
    snapshot = build_snapshot(recorder, audit, now_ms=source.clock.now)
    snapshot.extras["mode"] = mode
    snapshot.extras["fault"] = fault
    return snapshot
