"""Watermarks, per-view freshness and stage-lag decomposition.

The accounting model follows production CDC practice (DBLog-style
watermarking): every capture source owns a monotone sequence, the **high
watermark** is the newest captured sequence number and the **low
watermark** is the largest sequence below which *every* op has settled
(applied, pruned, absorbed by compaction, or rejected).  ``high - low``
bounds the in-flight window; a low watermark that stops advancing is the
first symptom of a lost message, before the auditor even runs.

Freshness is tracked at two grains:

* per ``(source, table)`` — how far the warehouse mirror's applied commit
  timestamp trails the newest captured commit for that table;
* per materialized view — the newest source commit reflected in the view
  (``applied_through_ms``), from which a staleness gauge ("virtual ms
  behind source commit") is derived.

All quantities are deterministic virtual milliseconds/counts, so pinned
regression values are exact across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..stats import nearest_rank_percentile


@dataclass
class SourceWatermark:
    """Low/high sequence watermarks of one capture source."""

    source: str
    #: Newest captured sequence number (0 before the first capture).
    high_seq: int = 0
    #: Every sequence <= this has settled (applied/pruned/absorbed/rejected).
    low_seq: int = 0
    captured: int = 0
    settled: int = 0
    #: Captured-but-unsettled sequences, for low-watermark advancement.
    _pending: set[int] = field(default_factory=set, repr=False)

    @property
    def in_flight(self) -> int:
        return self.captured - self.settled

    def capture(self, sequence: int) -> None:
        self.captured += 1
        self._pending.add(sequence)
        if sequence > self.high_seq:
            self.high_seq = sequence
        self._advance()

    def settle(self, sequence: int) -> None:
        if sequence in self._pending:
            self._pending.discard(sequence)
            self.settled += 1
            self._advance()

    def _advance(self) -> None:
        # The low watermark trails the smallest still-pending sequence;
        # with nothing pending it catches up to the high watermark.
        self.low_seq = min(self._pending) - 1 if self._pending else self.high_seq

    def to_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "low_seq": self.low_seq,
            "high_seq": self.high_seq,
            "captured": self.captured,
            "settled": self.settled,
            "in_flight": self.in_flight,
        }


@dataclass
class TableWatermark:
    """Commit-time freshness of one (source, table) mirror stream."""

    source: str
    table: str
    captured_ops: int = 0
    applied_ops: int = 0
    #: Newest source commit timestamp captured for this table.
    captured_through_ms: float | None = None
    #: Newest source commit timestamp applied at the warehouse.
    applied_through_ms: float | None = None

    @property
    def lag_ms(self) -> float:
        """Virtual ms of captured-but-unapplied commit history."""
        if self.captured_through_ms is None:
            return 0.0
        if self.applied_through_ms is None:
            return self.captured_through_ms
        return max(0.0, self.captured_through_ms - self.applied_through_ms)

    def to_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "table": self.table,
            "captured_ops": self.captured_ops,
            "applied_ops": self.applied_ops,
            "captured_through_ms": self.captured_through_ms,
            "applied_through_ms": self.applied_through_ms,
            "lag_ms": self.lag_ms,
        }


@dataclass
class ViewFreshness:
    """How current one materialized view is, in source-commit time."""

    view: str
    ops_applied: int = 0
    #: Newest source commit timestamp whose effects the view reflects.
    applied_through_ms: float | None = None
    #: Warehouse-clock time of the most recent maintenance step.
    last_applied_at_ms: float | None = None

    def staleness_ms(self, source_high_ms: float | None) -> float:
        """Virtual ms the view trails the newest captured source commit."""
        if source_high_ms is None:
            return 0.0
        if self.applied_through_ms is None:
            return source_high_ms
        return max(0.0, source_high_ms - self.applied_through_ms)

    def to_dict(self) -> dict[str, Any]:
        return {
            "view": self.view,
            "ops_applied": self.ops_applied,
            "applied_through_ms": self.applied_through_ms,
            "last_applied_at_ms": self.last_applied_at_ms,
        }


@dataclass
class LagSamples:
    """One stage-to-stage lag distribution (virtual ms, exact)."""

    values: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the exact samples (deterministic)."""
        return nearest_rank_percentile(self.values, q)

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(0.5),
            "p95": self.percentile(0.95),
            "max": self.max,
        }
