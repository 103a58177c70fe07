"""Lineage lifecycle events and their bounded, virtual-time-stamped log.

Every Op-Delta the capture layer stamps with a correlation id moves
through a fixed set of pipeline stages; each stage append-records one
:class:`LineageEvent` into an :class:`EventLog`.  The log is the raw
material of the watermark/freshness computation and the
:class:`~repro.obs.pipeline.auditor.PipelineAuditor`'s conservation
proof — and, like every other observable in :mod:`repro.obs`, its
timestamps are **virtual milliseconds** from the
:class:`~repro.clock.VirtualClock`, so two runs of the same workload
produce bit-identical logs.

Retention is bounded: the log keeps the most recent ``capacity`` events
and counts what it evicted (``dropped``), so a long-running pipeline can
leave lineage tracking on without unbounded memory.  The per-op lineage
*summary* lives separately in the
:class:`~repro.obs.pipeline.recorder.PipelineRecorder` and is not subject
to event retention — eviction loses event detail, never conservation.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator


class LifecycleKind(enum.Enum):
    """The pipeline stages an Op-Delta can be observed at."""

    #: Recorded by the capture wrapper (the op now has a correlation id).
    CAPTURED = "captured"
    #: Semantic validation passed at the capture seam.
    CHECKED = "checked"
    #: Dropped as irrelevant to every warehouse view (transport or apply).
    PRUNED = "pruned"
    #: Rewritten away by window compaction; the absorber (if any) carries
    #: the surviving statement.
    COMPACTED_AWAY = "compacted_away"
    #: Left the source over the network (file-shipper path).
    SHIPPED = "shipped"
    #: Durably enqueued on the persistent queue (one message per txn).
    ENQUEUED = "enqueued"
    #: Re-received after a nack/recover — the at-least-once duplicate
    #: signal (``detail`` carries ``attempt=N``).
    REDELIVERED = "redelivered"
    #: Settled on the queue after successful processing.
    ACKED = "acked"
    #: Replayed onto the warehouse mirror/views inside a committed txn.
    APPLIED = "applied"
    #: Refused — semantic rejection at capture, or an unreplayable
    #: volatile statement at apply.
    REJECTED = "rejected"
    #: The interference sanitizer observed an unordered conflicting
    #: access involving this op at apply time (``detail`` carries the
    #: ``RACE1xx`` code and the other op's correlation id).
    RACE = "race"
    #: The adaptive extraction switcher picked a capture method for one
    #: ``(table, window)`` — a table-level decision, recorded with a
    #: synthetic correlation id (``detail`` carries the chosen method and
    #: its cost estimate; ops routed away from op-delta replay settle as
    #: ``PRUNED`` with a ``switcher-*`` stage so conservation closes).
    ROUTED = "routed"


def lineage_key(op: Any) -> str:
    """The correlation id of an op, synthesized when capture never saw it.

    Ops produced by the capture wrapper carry a ``lineage_id`` of the form
    ``<source>:<sequence>``; hand-built ops (tests, fixtures) fall back to
    a ``(txn, sequence)``-derived key so lineage accounting still closes.
    """
    stamped = getattr(op, "lineage_id", None)
    if stamped:
        return str(stamped)
    return f"txn{op.txn_id}:op{op.sequence}"


def lineage_source(op: Any) -> str:
    """The source half of an op's correlation id (``<source>:<seq>``), or
    ``"unstamped"``."""
    stamped = getattr(op, "lineage_id", None)
    if stamped and ":" in str(stamped):
        return str(stamped).rsplit(":", 1)[0]
    return "unstamped"


@dataclass(frozen=True)
class LineageEvent:
    """One stage observation of one correlated operation."""

    kind: LifecycleKind
    correlation_id: str
    #: Virtual milliseconds at the observing component's clock.
    at_ms: float
    source: str = ""
    table: str = ""
    txn_id: int = 0
    sequence: int = 0
    #: Stage-specific annotation (``attempt=2``, ``rule=fold``, ...).
    detail: str = ""

    def render(self) -> str:
        extra = f" [{self.detail}]" if self.detail else ""
        return (
            f"{self.at_ms:10.3f}ms {self.kind.value:<14} "
            f"{self.correlation_id} (txn {self.txn_id}, {self.table}){extra}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind.value,
            "correlation_id": self.correlation_id,
            "at_ms": self.at_ms,
            "source": self.source,
            "table": self.table,
            "txn_id": self.txn_id,
            "sequence": self.sequence,
            "detail": self.detail,
        }


@dataclass
class EventLog:
    """Bounded, append-only record of lifecycle events.

    Keeps the most recent ``capacity`` events; older events are evicted
    and tallied in :attr:`dropped` and the retained per-kind counts in
    :attr:`counts` (counts cover *every* event ever appended — eviction
    never loses the totals the auditor reasons about).
    """

    capacity: int = 50_000
    dropped: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    _events: deque[LineageEvent] = field(default_factory=deque, repr=False)

    def append(self, event: LineageEvent) -> None:
        self._events.append(event)
        self.counts[event.kind.value] = self.counts.get(event.kind.value, 0) + 1
        while len(self._events) > self.capacity:
            self._events.popleft()
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[LineageEvent]:
        return iter(self._events)

    def total(self, kind: LifecycleKind) -> int:
        """How many events of ``kind`` were ever appended (pre-eviction)."""
        return self.counts.get(kind.value, 0)
