"""``repro-bench --certify``: prove parallel apply serializable first.

Captures the seed compaction workload — extended with predicate-partition
transactions only the *widened* commutativity prover can prove disjoint,
and one genuinely conflicting hot-range pair — then:

* **certifies** the three seed schedules statically
  (:func:`~repro.analysis.certify.certify`): the *plain*
  serial order, the *batched* LPT lane assignment, and the *compacted*
  window (whose coalescer reorder obligations are re-proven against the
  uncompacted groups);
* measures the **widening delta**: the conflict graph under the
  pre-widening prover vs the structural-disjointness prover, and the
  parallelism it buys (fewer edges, more components);
* proves **state parity**: serial apply, batched apply and batched apply
  under the :class:`~repro.analysis.certify.InterferenceSanitizer` all
  produce bit-for-bit identical mirror states;
* proves **zero virtual-time overhead**: the sanitizer-on batched run
  reports the exact same virtual elapsed/per-component times as the
  sanitizer-off run (the sanitizer never touches the clock).

``--fault swap-lane-ops`` seeds a race: one side of a conflict edge is
moved to the front of a different lane, so nothing orders the conflicting
pair.  Success then inverts — the drill exits 0 only when the static
certifier rejects the planted schedule (positioned ``RACE001`` with a
witness interleaving), the runtime sanitizer independently flags the
interference, *and* the integrator's mandatory pre-flight refuses to run
it.  Everything runs on the virtual clock, so the resulting
:class:`CertifyReport` is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..analysis.certify import (
    InterferenceSanitizer,
    certify,
    lpt_schedule,
    plant_lane_swap,
    single_lane_schedule,
    verify_compaction,
)
from ..analysis.conflict import ConflictGraph
from ..compaction import Coalescer
from ..errors import WarehouseError
from ..warehouse.warehouse import Warehouse
from ..workloads.records import parts_schema, strip_timestamp
from .experiments.common import build_parts_warehouse
from .experiments.compaction import build_analyzer
from .health import TXN_ROWS, capture_seed_window, seed_source

#: Version of the ``--certify --json`` document layout.  Bump on any
#: structural change to :meth:`CertifyReport.to_dict`.
SCHEMA_VERSION = 1

#: Schedules certified by one pass, in report order.
MODES = ("plain", "batched", "compacted")
#: The schedule the race drill plants its fault into.
FLAGSHIP = "batched"
#: Injectable faults (``repro-bench --certify --fault ...``).
FAULTS = ("swap-lane-ops",)

#: Parallel lanes for the batched/compacted lane assignments.
LANES = 3

#: Predicate-partition transaction pairs appended to the health pass's
#: seed window (:func:`~repro.bench.health.capture_seed_window`); each
#: pair covers the same row range split by ``supplier_id = 7`` vs
#: ``supplier_id <> 7`` — provably disjoint only for the widened prover.
PARTITION_PAIRS = 2


@dataclass
class CertifyReport:
    """One certification pass over the seed schedules, as plain data."""

    fault: str | None = None
    lanes: int = LANES
    transactions: int = 0
    operations: int = 0
    #: Mode name -> certificate summary, in :data:`MODES` order.
    modes: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Pre-widening vs structural conflict graph, and the delta.
    widening: dict[str, Any] = field(default_factory=dict)
    #: Serial vs batched vs sanitized-batched mirror state comparison.
    parity: dict[str, Any] = field(default_factory=dict)
    #: Sanitizer-off vs sanitizer-on virtual apply times.
    overhead: dict[str, Any] = field(default_factory=dict)
    #: The seeded race drill's outcome (``--fault swap-lane-ops`` only).
    drill: dict[str, Any] | None = None

    @property
    def verdict(self) -> str:
        """``CERTIFIED`` only when every seed schedule certified clean."""
        verdicts = [mode["verdict"] for mode in self.modes.values()]
        certified = bool(verdicts) and all(v == "CERTIFIED" for v in verdicts)
        return "CERTIFIED" if certified else "REJECTED"

    @property
    def clean(self) -> bool:
        return (
            self.verdict == "CERTIFIED"
            and bool(self.parity.get("bit_identical"))
            and bool(self.overhead.get("zero_virtual_overhead"))
            and self.widening.get("newly_commuting_pairs", 0) > 0
        )

    @property
    def fault_detected(self) -> bool:
        """Did *both* detectors — and the integrator — catch the race?"""
        if self.drill is None:
            return False
        return (
            self.drill["static"]["verdict"] == "REJECTED"
            and bool(self.drill["dynamic_findings"])
            and bool(self.drill["integrator_rejected"])
        )

    @property
    def exit_code(self) -> int:
        """0 = seed schedules certified, or: seeded race fully caught."""
        if self.fault is not None:
            return 0 if self.fault_detected else 1
        return 0 if self.clean else 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "fault": self.fault,
            "verdict": self.verdict,
            "fault_detected": self.fault_detected if self.fault else None,
            "lanes": self.lanes,
            "transactions": self.transactions,
            "operations": self.operations,
            "modes": self.modes,
            "widening": self.widening,
            "parity": self.parity,
            "overhead": self.overhead,
            "drill": self.drill,
        }


def _run_partition_txns(session, pairs: int, base_ref: int) -> None:
    """Disjoint-predicate pairs the pre-widening prover cannot separate.

    Both updates of a pair touch the *same* row range (so range
    disjointness cannot prove them apart) but partition it with
    ``supplier_id = 7`` / ``supplier_id <> 7``; neither assigns the
    witness column, so the structural prover certifies them commuting.
    """
    for i in range(pairs):
        low = base_ref + i * TXN_ROWS
        high = low + TXN_ROWS
        session.begin()
        session.execute(
            f"UPDATE parts SET status = 'pref-{i}' "
            f"WHERE supplier_id = 7 AND part_ref >= {low} AND part_ref < {high}"
        )
        session.commit()
        session.begin()
        session.execute(
            f"UPDATE parts SET status = 'gen-{i}' "
            f"WHERE supplier_id <> 7 AND part_ref >= {low} AND part_ref < {high}"
        )
        session.commit()


def _run_hot_range_txns(session, base_ref: int) -> None:
    """A genuinely conflicting pair: overlapping writes, no proof possible.

    This is the conflict edge the race drill moves across lanes — and in
    the clean run, the pair the certifier must find sharing a lane in
    capture order.
    """
    low, mid, high = base_ref, base_ref + 5, base_ref + 10
    session.begin()
    session.execute(
        f"UPDATE parts SET status = 'audit-a' "
        f"WHERE part_ref >= {low} AND part_ref < {mid + 3}"
    )
    session.commit()
    session.begin()
    session.execute(
        f"UPDATE parts SET status = 'audit-b' "
        f"WHERE part_ref >= {mid} AND part_ref < {high}"
    )
    session.commit()


def _run_certify_txns(session) -> None:
    """What this pass appends to the seed window, after its last row range."""
    _run_partition_txns(session, PARTITION_PAIRS, base_ref=100)
    _run_hot_range_txns(session, base_ref=150)


def _graph_stats(graph: ConflictGraph) -> dict[str, Any]:
    return {
        "edges": len(graph.edges),
        "components": graph.component_count,
        "largest_component": graph.largest_component,
    }


def _mirror_state(warehouse: Warehouse) -> list:
    schema = parts_schema()
    return sorted(
        strip_timestamp(
            schema,
            list(warehouse.database.table("parts").scan_values()),
        )
    )


def run_certify(fault: str | None = None) -> CertifyReport:
    """Certify the seed schedules; with ``fault``, run the race drill."""
    if fault is not None and fault not in FAULTS:
        raise ValueError(
            f"unknown fault {fault!r}; available: {', '.join(FAULTS)}"
        )
    report = CertifyReport(fault=fault)
    source, session, initial_rows = seed_source("certify")
    analyzer = build_analyzer()
    groups = capture_seed_window(
        source, session, analyzer, extend=_run_certify_txns
    )
    report.transactions = len(groups)
    report.operations = sum(len(g.operations) for g in groups)

    graph_wide = analyzer.conflict_graph(groups)
    graph_conservative = analyzer.conflict_graph(groups, structural=False)

    # ---- widening delta: what the structural prover buys ----------------
    wide_edges = set(graph_wide.edges)
    conservative_edges = set(graph_conservative.edges)
    report.widening = {
        "conservative": _graph_stats(graph_conservative),
        "widened": _graph_stats(graph_wide),
        "newly_commuting_pairs": len(conservative_edges - wide_edges),
        "sound": not (wide_edges - conservative_edges),
    }

    # ---- the three seed schedules ---------------------------------------
    serial = single_lane_schedule(groups)
    lanes = lpt_schedule(groups, graph_wide, lanes=LANES)
    report.modes["plain"] = certify(groups, graph_wide, serial).to_dict()
    report.modes["batched"] = certify(groups, graph_wide, lanes).to_dict()

    coalescer = Coalescer(analyzer=analyzer, clock=source.clock)
    compacted, compaction = coalescer.compact_window(groups)
    obligations = verify_compaction(
        groups, compaction.reorder_obligations, analyzer.record()
    )
    graph_compacted = analyzer.conflict_graph(compacted)
    compacted_certificate = certify(
        compacted,
        graph_compacted,
        lpt_schedule(compacted, graph_compacted, lanes=LANES),
    )
    compacted_summary = compacted_certificate.to_dict()
    compacted_summary["reorder_obligations"] = len(
        compaction.reorder_obligations
    )
    compacted_summary["obligation_findings"] = [
        f.to_dict() for f in obligations.findings
    ]
    if obligations.findings:
        compacted_summary["verdict"] = "REJECTED"
    report.modes["compacted"] = compacted_summary

    # ---- state parity and sanitizer overhead ----------------------------
    wh_serial, integ_serial = build_parts_warehouse(
        "certify-wh-serial", source.clock, initial_rows, analyzer
    )
    wh_off, integ_off = build_parts_warehouse(
        "certify-wh-batched-off", source.clock, initial_rows, analyzer
    )
    sanitizer = InterferenceSanitizer(LANES, analyzer.record())
    wh_on, integ_on = build_parts_warehouse(
        "certify-wh-batched-on", source.clock, initial_rows, analyzer, sanitizer
    )
    serial_report = integ_serial.integrate(groups)
    off_report = integ_off.integrate_batched(
        groups, graph=graph_wide, schedule=lanes
    )
    on_report = integ_on.integrate_batched(
        groups, graph=graph_wide, schedule=lanes
    )
    state_serial = _mirror_state(wh_serial)
    state_off = _mirror_state(wh_off)
    state_on = _mirror_state(wh_on)
    report.parity = {
        "serial_verdict": serial_report.certificate_verdict,
        "batched_verdict": off_report.certificate_verdict,
        "bit_identical": state_serial == state_off == state_on,
        "sanitizer_clean": sanitizer.clean,
    }
    report.overhead = {
        "sanitizer_off_elapsed_ms": off_report.elapsed_ms,
        "sanitizer_on_elapsed_ms": on_report.elapsed_ms,
        "zero_virtual_overhead": (
            off_report.elapsed_ms == on_report.elapsed_ms
            and off_report.per_component_ms == on_report.per_component_ms
        ),
    }

    # ---- the seeded race drill ------------------------------------------
    if fault == "swap-lane-ops":
        planted = plant_lane_swap(lanes, graph_wide)
        static = certify(groups, graph_wide, planted)
        drill_sanitizer = InterferenceSanitizer(LANES, analyzer.record())
        dynamic = drill_sanitizer.replay(groups, planted)
        wh_drill, integ_drill = build_parts_warehouse(
            "certify-wh-drill", source.clock, initial_rows, analyzer
        )
        integrator_rejected = False
        rejection = ""
        try:
            integ_drill.integrate_batched(
                groups, graph=graph_wide, schedule=planted
            )
        except WarehouseError as exc:
            integrator_rejected = True
            rejection = str(exc)
        report.drill = {
            "planted_schedule": planted.to_dict(),
            "static": static.to_dict(),
            "dynamic_findings": [f.to_dict() for f in dynamic],
            "integrator_rejected": integrator_rejected,
            "integrator_error": rejection,
            "drill_state_untouched": _mirror_state(wh_drill)
            == sorted(strip_timestamp(parts_schema(), initial_rows)),
        }
    return report
