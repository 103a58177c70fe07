"""Accounting for one compaction pass over a shippable window."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class AbsorbedEdge:
    """One op rewritten away, attributed to its surviving absorber.

    ``absorbed_by`` is the lineage key of the statement that now carries
    the effect, or ``None`` when the effect vanished entirely (INSERT ∘
    DELETE annihilation).  These edges feed the pipeline auditor's
    conservation proof (:mod:`repro.obs.pipeline`): a compacted-away op is
    *accounted for*, not lost.
    """

    absorbed: str
    absorbed_by: str | None
    rule: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "absorbed": self.absorbed,
            "absorbed_by": self.absorbed_by,
            "rule": self.rule,
        }


@dataclass(frozen=True)
class ReorderObligation:
    """One commutativity proof the coalescer relied on to move an effect.

    When a combining rewrite fires, the surviving statement's effect
    teleports backwards past every op the scan commuted over; each hop is
    recorded here so the schedule certifier
    (:func:`repro.analysis.certify.verify_compaction`)
    can independently re-prove it against the uncompacted window.
    ``moved``/``over`` are lineage keys; the ``(txn_id, sequence)``
    coordinates locate the ops in the original groups.
    """

    moved: str
    over: str
    table: str
    txn_id: int
    moved_sequence: int
    over_sequence: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "moved": self.moved,
            "over": self.over,
            "table": self.table,
            "txn_id": self.txn_id,
            "moved_sequence": self.moved_sequence,
            "over_sequence": self.over_sequence,
        }


@dataclass
class CompactionReport:
    """What one :meth:`~repro.compaction.Coalescer.compact_window` did.

    ``ops_in``/``ops_out`` and ``bytes_in``/``bytes_out`` measure the
    window before and after rewriting (bytes via
    :attr:`~repro.core.opdelta.OpDelta.size_bytes`, i.e. the wire
    encoding).  The per-rule counters attribute every removed statement to
    the rewrite that claimed it, and :attr:`absorbed` names each removed
    statement's surviving absorber (lineage "absorbed-by" edges).
    """

    ops_in: int = 0
    ops_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    transactions_in: int = 0
    transactions_out: int = 0
    #: UPDATE∘UPDATE pairs folded into one statement.
    updates_folded: int = 0
    #: INSERT statements fused into a preceding multi-row INSERT.
    inserts_fused: int = 0
    #: INSERT/DELETE pairs that annihilated (both statements dropped).
    pairs_annihilated: int = 0
    #: UPDATEs dropped because a later DELETE provably removes every row
    #: they touch.
    updates_superseded: int = 0
    #: Lineage edges: every op a rewrite removed, with its absorber.
    absorbed: list[AbsorbedEdge] = field(default_factory=list)
    #: Commutativity proofs behind every effect the compactor moved; the
    #: schedule certifier re-derives each one before apply.
    reorder_obligations: list[ReorderObligation] = field(
        default_factory=list
    )

    @property
    def bytes_saved(self) -> int:
        return self.bytes_in - self.bytes_out

    @property
    def bytes_ratio(self) -> float:
        """Shipped fraction: ``bytes_out / bytes_in`` (1.0 for an empty window)."""
        if self.bytes_in == 0:
            return 1.0
        return self.bytes_out / self.bytes_in

    def to_dict(self) -> dict[str, Any]:
        return {
            "ops_in": self.ops_in,
            "ops_out": self.ops_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "bytes_saved": self.bytes_saved,
            "bytes_ratio": self.bytes_ratio,
            "transactions_in": self.transactions_in,
            "transactions_out": self.transactions_out,
            "updates_folded": self.updates_folded,
            "inserts_fused": self.inserts_fused,
            "pairs_annihilated": self.pairs_annihilated,
            "updates_superseded": self.updates_superseded,
            "absorbed": [edge.to_dict() for edge in self.absorbed],
            "reorder_obligations": [
                obligation.to_dict()
                for obligation in self.reorder_obligations
            ],
        }
