"""Causal critical-path forensics over Op-Delta lineage.

The :class:`~repro.obs.pipeline.recorder.PipelineRecorder` already knows
*when* each op hit each lifecycle stage; this module answers *why an op
was late*.  For every applied op it stitches the capture→check→ship→
queue→apply chain by correlation id and partitions the end-to-end
latency into four blocking segments:

``check``
    Capture-side overhead: from the op's creation timestamp to the
    CHECKED lifecycle event (semantic validation plus the log-store
    write the capture wrapper performs before reporting).
``ship``
    Source-side dwell: from CHECKED until the op left the source
    (its ENQUEUED event, or SHIPPED when no queue is involved).
``queue``
    Consumer wait: from leaving the source until the *apply round*
    that drained it began.
``apply``
    Integration: from the round start until the op's first APPLIED
    event.

The segments telescope — their sum equals the op's end-to-end latency
exactly, so a ``SUM(...)`` over ``sys.critical_path`` reconciles against
the recorder's ``end_to_end`` lag histogram with no residue.

Apply rounds are not stamped explicitly anywhere (a batched integrate
call is one warehouse transaction and commits emit no lifecycle
events), so the pass derives them from the event log: a maximal run of
consecutive APPLIED events is one round, and the round *starts* at its
first APPLIED timestamp.  Interleaved ACKED/ENQUEUED/REDELIVERED events
separate rounds.  When an op's APPLIED event has been evicted from the
bounded log its round is unknowable: the row degrades conservatively
(``window_index = -1``, the whole post-source wait attributed to
``queue``, ``apply`` zero).

Everything here is a pure fold over the recorder's own virtual-time
stamps — the pass never reads a clock, so running forensics costs the
observed pipeline nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from ...plain import Record, plain
from ..pipeline.events import LifecycleKind
from ..pipeline.recorder import OpLineage, PipelineRecorder

#: Segment order is also the tie-break order when naming the critical
#: stage: an earlier pipeline stage wins an exact tie.
STAGES = ("check", "ship", "queue", "apply")

#: ``window_index`` for ops whose APPLIED events were evicted.
UNKNOWN_WINDOW = -1


def critical_stage(segments: Mapping[str, float]) -> str:
    """The stage with the largest blocking segment (ties: earliest)."""
    best = STAGES[0]
    for stage in STAGES[1:]:
        if segments.get(stage, 0.0) > segments.get(best, 0.0):
            best = stage
    return best


@dataclass(frozen=True)
class CriticalPathRow(Record):
    """One applied op's latency decomposition — a ``sys.critical_path`` row."""

    correlation_id: str
    source: str
    table: str
    window_index: int
    views: tuple[str, ...]
    check_ms: float
    ship_ms: float
    queue_ms: float
    apply_ms: float
    end_to_end_ms: float

    derived = ("critical_stage",)

    @property
    def segments(self) -> dict[str, float]:
        return {
            "check": self.check_ms,
            "ship": self.ship_ms,
            "queue": self.queue_ms,
            "apply": self.apply_ms,
        }

    @property
    def critical_stage(self) -> str:
        return critical_stage(self.segments)


@dataclass(frozen=True)
class StageBlame(Record):
    """Summed segments over one group of ops plus the stage they indict."""

    label: str
    ops: int
    segments: Mapping[str, float]
    total_ms: float

    derived = ("critical_stage",)

    @property
    def critical_stage(self) -> str:
        return critical_stage(self.segments)


def _sum_blame(label: str, rows: Iterable[CriticalPathRow]) -> StageBlame:
    segments = dict.fromkeys(STAGES, 0.0)
    count = 0
    total = 0.0
    for row in rows:
        for stage, value in row.segments.items():
            segments[stage] += value
        total += row.end_to_end_ms
        count += 1
    return StageBlame(label=label, ops=count, segments=segments, total_ms=total)


class CriticalPathAnalyzer:
    """Assembles :class:`CriticalPathRow`\\ s from one recorder's state.

    The pass is a single walk over the event log (building the per-op
    first-timestamp index and the apply-round boundaries) followed by a
    walk over the lineage table.  Results are cached — the analyzer is a
    snapshot, built once per query.
    """

    def __init__(self, recorder: PipelineRecorder) -> None:
        self._recorder = recorder
        self._rows: list[CriticalPathRow] | None = None

    # -------------------------------------------------------------- assembly
    def rows(self) -> list[CriticalPathRow]:
        if self._rows is None:
            self._rows = self._assemble()
        return self._rows

    def _assemble(self) -> list[CriticalPathRow]:
        checked_at: dict[str, float] = {}
        round_of: dict[str, int] = {}
        round_starts: dict[int, float] = {}
        current_round = -1
        in_applied_run = False
        for event in self._recorder.log:
            if event.kind is LifecycleKind.APPLIED:
                if not in_applied_run:
                    current_round += 1
                    round_starts[current_round] = event.at_ms
                    in_applied_run = True
                round_of.setdefault(event.correlation_id, current_round)
            else:
                in_applied_run = False
                if event.kind is LifecycleKind.CHECKED:
                    checked_at.setdefault(event.correlation_id, event.at_ms)

        rows: list[CriticalPathRow] = []
        for correlation_id, record in self._recorder.lineage.items():
            row = self._decompose(
                correlation_id, record, checked_at, round_of, round_starts
            )
            if row is not None:
                rows.append(row)
        return rows

    @staticmethod
    def _decompose(
        correlation_id: str,
        record: OpLineage,
        checked_at: Mapping[str, float],
        round_of: Mapping[str, int],
        round_starts: Mapping[int, float],
    ) -> CriticalPathRow | None:
        if not record.applied_at:
            return None
        captured = record.captured_at
        first_applied = min(record.applied_at)
        # CHECKED is stamped after the op is created *and* written to the
        # log store, so the segment absorbs the store write; ops captured
        # without a checker fall back to zero.
        checked = checked_at.get(correlation_id, captured)
        checked = min(max(checked, captured), first_applied)
        # The op leaves the source when it is enqueued (or shipped, for
        # transports without a queue); ops applied in-process never left.
        left_source = record.enqueued_at
        if left_source is None:
            left_source = record.shipped_at
        if left_source is None:
            left_source = checked
        left_source = min(max(left_source, checked), first_applied)
        window_index = round_of.get(correlation_id, UNKNOWN_WINDOW)
        round_start = round_starts.get(window_index, first_applied)
        round_start = min(max(round_start, left_source), first_applied)
        return CriticalPathRow(
            correlation_id=correlation_id,
            source=record.source,
            table=record.table,
            window_index=window_index,
            views=record.views,
            check_ms=checked - captured,
            ship_ms=left_source - checked,
            queue_ms=round_start - left_source,
            apply_ms=first_applied - round_start,
            end_to_end_ms=first_applied - captured,
        )

    # ------------------------------------------------------------ aggregates
    def window_blame(self) -> list[StageBlame]:
        """Per apply-round blame, ordered by round index.

        The evicted-events bucket (``window_index == -1``), when present,
        sorts first under the label ``window:unknown``.
        """
        by_round: dict[int, list[CriticalPathRow]] = {}
        for row in self.rows():
            by_round.setdefault(row.window_index, []).append(row)
        blames = []
        for index in sorted(by_round):
            label = "window:unknown" if index == UNKNOWN_WINDOW else f"window:{index}"
            blames.append(_sum_blame(label, by_round[index]))
        return blames

    def view_blame(self) -> list[StageBlame]:
        """Per-view blame: which stage dominates each view's staleness."""
        by_view: dict[str, list[CriticalPathRow]] = {}
        for row in self.rows():
            for view in row.views:
                by_view.setdefault(view, []).append(row)
        return [
            _sum_blame(f"view:{view}", by_view[view]) for view in sorted(by_view)
        ]

    def p99_blame(self) -> CriticalPathRow | None:
        """The nearest-rank p99 op by end-to-end latency (None when empty).

        This is the op the drill interrogates: its critical stage names
        what put the tail where it is.
        """
        rows = sorted(self.rows(), key=lambda r: (r.end_to_end_ms, r.correlation_id))
        if not rows:
            return None
        rank = max(1, math.ceil(0.99 * len(rows)))
        return rows[rank - 1]

    def to_dict(self) -> dict[str, Any]:
        return {
            "ops": len(self.rows()),
            "windows": plain(self.window_blame()),
            "views": plain(self.view_blame()),
            "p99": plain(self.p99_blame()),
        }
