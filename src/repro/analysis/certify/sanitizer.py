"""Runtime interference sanitizer: conflicting accesses across lanes.

The TSan-style dynamic cross-check of the static certificate.  When
enabled, every applied operation is *observed* with the lane it ran on.
Accesses on one lane are ordered by the lane; nothing orders two lanes, so
the sanitizer flags conflicting accesses on different lanes the moment the
second access of a racy pair is observed:

* ``RACE101`` — lost update: concurrent writes to the same column where
  one side is a read-modify-write (``qty = qty + 1``); one increment is
  silently dropped under some interleaving.
* ``RACE102`` — write–write race: concurrent writes to overlapping rows
  and columns with no ordering between them.
* ``RACE103`` — read-of-uncommitted: a statement's predicate or inputs
  read rows a concurrent, unordered writer is mutating.

The sanitizer is pure data-in, data-out: timestamps arrive as ``at_ms``
arguments and it never touches the virtual clock, so enabling it costs
**zero virtual time** — the bench experiment asserts this.  Row overlap
is judged conservatively from predicate ranges: two accesses whose row
sets cannot be proven disjoint are treated as overlapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ...core.opdelta import OpDelta, OpDeltaTransaction
from ...obs.pipeline.context import ambient_pipeline
from ..conflict import CommutationRecord
from ..rwsets import StatementFootprint
from .certifier import RaceFinding, correlation_id
from .schedule import LaneSchedule


@dataclass(frozen=True)
class _Access:
    """One observed table access: who and where."""

    lane: int
    op: OpDelta
    footprint: StatementFootprint
    at_ms: float


def _write_columns(footprint: StatementFootprint) -> frozenset[str] | None:
    """Columns the statement writes; ``None`` means *all* columns."""
    if footprint.writes_all_columns:
        return None
    return frozenset(footprint.writes)


def _read_columns(footprint: StatementFootprint) -> frozenset[str] | None:
    if footprint.reads_all_columns:
        return None
    return frozenset(footprint.reads)


def _columns_overlap(
    a: frozenset[str] | None, b: frozenset[str] | None
) -> frozenset[str]:
    """The overlapping column set; non-empty when a race is possible."""
    if a is None and b is None:
        return frozenset({"*"})
    if a is None:
        return b if b else frozenset()
    if b is None:
        return a if a else frozenset()
    return a & b


class InterferenceSanitizer:
    """Detect unordered conflicting accesses as operations are applied.

    ``observe(lane, op, at_ms)`` is the single seam: the integrator (or
    the :meth:`replay` driver) calls it for every operation it applies,
    in the order the operations actually run.  Accesses on the same lane
    are ordered by the lane; accesses on different lanes are concurrent,
    and conflicting pairs are races.

    Footprints and commutation verdicts come from ``record`` (an
    :meth:`~repro.analysis.analyzer.OpDeltaAnalyzer.record` of its own),
    so the sanitizer judges a pair exactly as the static certifier reading
    the same analyzer's conflict graph does.
    """

    def __init__(self, lanes: int, record: CommutationRecord) -> None:
        self._lanes = lanes
        self._record = record
        self._accesses: list[_Access] = []
        self._seen_pairs: set[tuple[str, str]] = set()
        self._findings: list[RaceFinding] = []

    @property
    def findings(self) -> tuple[RaceFinding, ...]:
        return tuple(self._findings)

    @property
    def clean(self) -> bool:
        return not self._findings

    # -- observation seam ---------------------------------------------

    def observe(self, lane: int, op: OpDelta, at_ms: float) -> None:
        """Record one applied operation and check it against history."""
        if not 0 <= lane < self._lanes:
            lane = lane % self._lanes if self._lanes else 0
        footprint = self._record.footprint(op)
        access = _Access(lane=lane, op=op, footprint=footprint, at_ms=at_ms)
        for prior in self._accesses:
            if prior.lane != lane:  # same-lane accesses are program-ordered
                self._check_pair(prior, access)
        self._accesses.append(access)

    # -- race classification ------------------------------------------

    def _check_pair(self, prior: _Access, current: _Access) -> None:
        # Unordered accesses that provably commute are not races: the
        # final state is the same whichever lane wins.  The record is the
        # sole gate, asked earlier-captured op first — the orientation the
        # certifier asks a pair of transactions captured one after the
        # other in — so the dynamic verdict is the static one: a race is an
        # unordered *conflicting* access.  Row-disjoint pairs normally commute, and
        # when the prover still refuses (an INSERT a non-literal UPDATE's
        # predicate could capture, a volatile statement) the pair stays a
        # race: column overlap below only picks the classification, and
        # only within one table.
        early, late = sorted((prior, current), key=lambda a: a.op.captured_at)
        if self._record.commute(early.op, late.op):
            return
        fp_a, fp_b = prior.footprint, current.footprint
        same_table = fp_a.table == fp_b.table
        writes_a = _write_columns(fp_a) if same_table else frozenset()
        writes_b = _write_columns(fp_b) if same_table else frozenset()
        write_overlap = _columns_overlap(writes_a, writes_b)
        finding: RaceFinding | None = None
        if write_overlap:
            reads_a = _read_columns(fp_a) or frozenset()
            reads_b = _read_columns(fp_b) or frozenset()
            rmw = bool(
                {c for c in write_overlap if c in reads_a or c in reads_b}
            ) or fp_a.reads_all_columns or fp_b.reads_all_columns
            if rmw:
                finding = self._finding(
                    "RACE101",
                    prior,
                    current,
                    "lost update: concurrent read-modify-write and write "
                    f"of column(s) {self._cols(write_overlap)} with no "
                    "ordering between the lanes",
                )
            else:
                finding = self._finding(
                    "RACE102",
                    prior,
                    current,
                    "write-write race: concurrent unordered writes to "
                    f"column(s) {self._cols(write_overlap)} of "
                    "overlapping rows",
                )
        else:
            read_write = _columns_overlap(_read_columns(fp_a), writes_b)
            write_read = _columns_overlap(writes_a, _read_columns(fp_b))
            if read_write or write_read:
                finding = self._finding(
                    "RACE103",
                    prior,
                    current,
                    "read-of-uncommitted: a concurrent unordered writer "
                    "mutates column(s) "
                    f"{self._cols(read_write or write_read)} this "
                    "statement reads",
                )
            else:
                finding = self._finding(
                    "RACE102",
                    prior,
                    current,
                    "conflicting unordered accesses: the commutativity "
                    "prover found a dependency between these statements "
                    "with no ordering between the lanes",
                )
        if finding is not None:
            self._flag(finding, current.at_ms)

    @staticmethod
    def _cols(columns: frozenset[str]) -> str:
        return ", ".join(sorted(columns))

    def _finding(
        self, code: str, prior: _Access, current: _Access, message: str
    ) -> RaceFinding:
        return RaceFinding(
            code=code,
            message=message,
            table=prior.footprint.table or "",
            txn_a=prior.op.txn_id,
            txn_b=current.op.txn_id,
            op_a=correlation_id(prior.op),
            op_b=correlation_id(current.op),
            lane_a=prior.lane,
            lane_b=current.lane,
        )

    def _flag(self, finding: RaceFinding, at_ms: float) -> None:
        pair = tuple(sorted((finding.op_a, finding.op_b)))
        key = (pair[0], pair[1])
        if key in self._seen_pairs:
            return
        self._seen_pairs.add(key)
        self._findings.append(finding)
        recorder = ambient_pipeline()
        if recorder is not None:
            recorder.record_race(
                code=finding.code,
                op_a=finding.op_a,
                op_b=finding.op_b,
                table=finding.table,
                at_ms=at_ms,
                detail=finding.message,
            )

    # -- deterministic replay driver ----------------------------------

    def replay(
        self,
        groups: Sequence[OpDeltaTransaction],
        schedule: LaneSchedule,
    ) -> tuple[RaceFinding, ...]:
        """Drive the sanitizer over a schedule's worst-case interleaving.

        Round-robins one operation at a time across the lanes (an
        interleaving every unsynchronised schedule admits), feeding each
        op's own capture timestamp as its observation time — fully
        deterministic and independent of any clock.
        """
        by_id = {g.txn_id: g for g in groups}
        streams: list[list[OpDelta]] = []
        for lane in schedule.lanes:
            ops: list[OpDelta] = []
            for txn_id in lane:
                group = by_id.get(txn_id)
                if group is not None:
                    ops.extend(group.operations)
            streams.append(ops)
        cursors = [0] * len(streams)
        progressed = True
        while progressed:
            progressed = False
            for lane_index, stream in enumerate(streams):
                cursor = cursors[lane_index]
                if cursor < len(stream):
                    op = stream[cursor]
                    self.observe(lane_index, op, at_ms=op.captured_at)
                    cursors[lane_index] = cursor + 1
                    progressed = True
        return self.findings
