"""Cost-model-driven adaptive extraction switching.

The paper prices each extraction method in isolation (§3) and Op-Delta
against value deltas at the warehouse (§4); a production pipeline has to
*choose*, per table and per shippable window.  The switcher closes that
loop: it prices one window under every capture method — the four §3
value-delta extractors plus Op-Delta capture — using the same calibrated
:class:`~repro.engine.costs.CostModel` the engine charges, and routes
each table to the cheapest.

Op-Delta replay wins whenever the window is shallow: its capture cost is
constant per statement and its apply cost is proportional to the *rows
the statements touch*.  But when backlog depth (many windows' worth of
churn against the same rows) or transaction shape (scan-heavy updates
over a small table) make the statement history more expensive than the
state it produces, a snapshot extract plus bulk-load staging
(:meth:`~repro.warehouse.warehouse.Warehouse.staging_refresh`) is
cheaper — the switcher flips exactly there.

Every decision is recorded as a ``ROUTED`` pipeline lifecycle event, and
every op a decision routes away from op-delta replay is settled as
``PRUNED`` with a ``switcher-<method>`` stage, so the
:class:`~repro.obs.pipeline.auditor.PipelineAuditor`'s conservation law
still closes over a routed window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from ..core.opdelta import OpDelta, OpDeltaTransaction, OpKind
from ..engine.costs import DEFAULT_COST_MODEL
from ..obs.pipeline.context import ambient_pipeline


class ExtractionMethod(enum.Enum):
    """The five capture methods the switcher prices (paper §3 + §4)."""

    OP_DELTA = "op-delta"
    TIMESTAMP = "timestamp"
    SNAPSHOT_DIFF = "snapshot-diff"
    TRIGGER = "trigger"
    LOG_SCAN = "log-scan"


#: Methods whose warehouse side is a staged bulk reload instead of
#: statement replay (the snapshot ships the whole state, so the cheapest
#: apply is the Loader path — paper Table 1).
STAGING_METHODS = frozenset({ExtractionMethod.SNAPSHOT_DIFF})

#: Scales the non-op-delta estimates before comparison: above 1.0 the
#: switcher is conservative about leaving the replay path (hysteresis
#: against flapping on windows priced near the crossover).
STAGING_BIAS = 1.1


@dataclass(frozen=True)
class TableProfile:
    """What the switcher knows about one source table's steady state."""

    #: Current cardinality of the table (drives scan/snapshot costs).
    rows: int
    #: Mean encoded row width in bytes (drives transport/log costs).
    row_bytes: int = 64


@dataclass(frozen=True)
class WindowShape:
    """Per-table summary of one shippable window of Op-Deltas."""

    table: str
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    #: Total wire bytes of the table's ops (statements + before images).
    payload_bytes: int = 0

    @property
    def statements(self) -> int:
        return self.inserts + self.updates + self.deletes

    @classmethod
    def from_window(
        cls, table: str, groups: Iterable[OpDeltaTransaction]
    ) -> "WindowShape":
        inserts = updates = deletes = payload = 0
        for group in groups:
            for op in group.operations:
                if op.table != table:
                    continue
                if op.kind is OpKind.INSERT:
                    inserts += 1
                elif op.kind is OpKind.UPDATE:
                    updates += 1
                else:
                    deletes += 1
                payload += op.size_bytes
        return cls(
            table=table,
            inserts=inserts,
            updates=updates,
            deletes=deletes,
            payload_bytes=payload,
        )

    def backlog_depth(self, profile: TableProfile) -> float:
        """Churn statements per live row — the backlog-pressure signal.

        Around 0 the window barely grazes the table and statement replay
        is obviously right; near (or past) 1.0 the window rewrites the
        table wholesale and shipping the state starts to win.
        """
        if profile.rows <= 0:
            return float(self.updates + self.deletes)
        return (self.updates + self.deletes) / profile.rows


@dataclass(frozen=True)
class MethodEstimate:
    """Priced capture + transport + apply for one method on one window."""

    method: ExtractionMethod
    capture_ms: float
    transport_ms: float
    apply_ms: float

    @property
    def total_ms(self) -> float:
        return self.capture_ms + self.transport_ms + self.apply_ms


@dataclass(frozen=True)
class RoutingDecision:
    """One (table, window) routing verdict, with its full price sheet."""

    table: str
    method: ExtractionMethod
    estimates: tuple[MethodEstimate, ...]
    shape: WindowShape
    backlog_depth: float = 0.0

    @property
    def use_staging(self) -> bool:
        """True when the table leaves the op-delta replay path."""
        return self.method is not ExtractionMethod.OP_DELTA

    def estimate_for(self, method: ExtractionMethod) -> MethodEstimate:
        for estimate in self.estimates:
            if estimate.method is method:
                return estimate
        raise KeyError(method.value)

    def render(self) -> str:
        prices = ", ".join(
            f"{e.method.value}={e.total_ms:.1f}ms" for e in self.estimates
        )
        return (
            f"{self.table}: {self.method.value} "
            f"(backlog {self.backlog_depth:.2f}; {prices})"
        )


#: The profile of a table the switcher was given none for.
DEFAULT_PROFILE = TableProfile(rows=10_000)


class AdaptiveExtractionSwitcher:
    """Prices a window per table under all five methods and routes it.

    ``profiles`` supplies table cardinalities/row widths (tables without
    a profile default to :data:`DEFAULT_PROFILE`).
    """

    def __init__(self, profiles: Mapping[str, TableProfile] | None = None) -> None:
        self._costs = DEFAULT_COST_MODEL
        self._profiles = dict(profiles) if profiles is not None else {}
        #: Every decision ever taken, in window order (for reports).
        self.decisions: list[RoutingDecision] = []

    def profile_for(self, table: str) -> TableProfile:
        return self._profiles.get(table, DEFAULT_PROFILE)

    # ------------------------------------------------------------- estimates
    def estimate(self, shape: WindowShape) -> tuple[MethodEstimate, ...]:
        """Price the window under every method, op-delta first."""
        profile = self.profile_for(shape.table)
        return (
            self._estimate_op_delta(shape),
            self._estimate_timestamp(shape, profile),
            self._estimate_snapshot_diff(shape, profile),
            self._estimate_trigger(shape, profile),
            self._estimate_log_scan(shape, profile),
        )

    def _row_apply_ms(self, shape: WindowShape, rows_touched: float) -> float:
        """Warehouse-side cost of replaying the window's statements."""
        c = self._costs
        per_row = (
            shape.inserts * (c.row_insert_cpu + c.index_insert)
            + shape.updates * c.row_update_cpu
            + shape.deletes * (c.row_delete_cpu + c.index_delete)
        )
        wal = shape.statements * c.log_append(
            self.profile_for(shape.table).row_bytes
        )
        scans = rows_touched * c.row_scan_cpu
        return shape.statements * c.stmt_overhead + per_row + wal + scans

    def _value_delta_apply_ms(self, shape: WindowShape, records: float) -> float:
        """Value-delta integration: DELETE + INSERT per update record."""
        c = self._costs
        profile = self.profile_for(shape.table)
        statements = shape.inserts + 2 * (shape.updates + shape.deletes)
        per_row = (
            shape.inserts * (c.row_insert_cpu + c.index_insert)
            + (shape.updates + shape.deletes)
            * (c.row_delete_cpu + c.index_delete + c.row_insert_cpu + c.index_insert)
        )
        wal = records * c.log_append(profile.row_bytes)
        return statements * c.stmt_overhead + per_row + wal

    def _estimate_op_delta(self, shape: WindowShape) -> MethodEstimate:
        c = self._costs
        profile = self.profile_for(shape.table)
        # Capture is the paper's headline: constant per statement, no
        # scans, no triggers — one middleware interception each.
        capture = shape.statements * c.ascii_format_row
        transport = c.network_transfer(shape.payload_bytes)
        # Each UPDATE/DELETE statement re-finds its rows at the warehouse.
        rows_touched = (shape.updates + shape.deletes) * profile.rows
        return MethodEstimate(
            ExtractionMethod.OP_DELTA,
            capture_ms=capture,
            transport_ms=transport,
            apply_ms=self._row_apply_ms(shape, rows_touched),
        )

    def _estimate_timestamp(
        self, shape: WindowShape, profile: TableProfile
    ) -> MethodEstimate:
        c = self._costs
        touched = shape.statements
        # One predicate scan over the last-modified column, then render
        # the touched rows.  Deletes are invisible to this method — the
        # extra snapshot reconciliation is priced in, like §3.1 notes.
        capture = (
            profile.rows * (c.row_scan_cpu + c.index_lookup)
            + touched * c.ascii_format_row
            + shape.deletes * profile.rows * c.row_scan_cpu
        )
        transport = c.network_transfer(touched * profile.row_bytes)
        return MethodEstimate(
            ExtractionMethod.TIMESTAMP,
            capture_ms=capture,
            transport_ms=transport,
            apply_ms=self._value_delta_apply_ms(shape, touched),
        )

    def _estimate_snapshot_diff(
        self, shape: WindowShape, profile: TableProfile
    ) -> MethodEstimate:
        c = self._costs
        # Dump the table, read the previous snapshot back, sort-merge.
        capture = profile.rows * (
            c.row_scan_cpu
            + c.export_row_cpu
            + c.ascii_format_row
            + c.ascii_parse_row
        ) + c.file_read(profile.rows * profile.row_bytes)
        # The whole state ships: that is what staging reloads from.
        transport = c.network_transfer(profile.rows * profile.row_bytes)
        # Apply is the Loader path: truncate + direct block bulk load,
        # plus re-deriving the views over the staged rows.
        apply = profile.rows * (
            c.loader_row_cpu
            + c.row_insert_cpu * c.bulk_internal_cpu_factor
            + c.index_insert
        )
        return MethodEstimate(
            ExtractionMethod.SNAPSHOT_DIFF,
            capture_ms=capture,
            transport_ms=transport,
            apply_ms=apply,
        )

    def _estimate_trigger(
        self, shape: WindowShape, profile: TableProfile
    ) -> MethodEstimate:
        c = self._costs
        touched = shape.statements
        # Row triggers tax the source OLTP per touched row (Figure 2):
        # firing machinery + one delta-table insert + its WAL append.
        capture = touched * (
            c.trigger_invoke + c.row_insert_cpu + c.log_append(profile.row_bytes)
        )
        transport = c.network_transfer(touched * profile.row_bytes)
        return MethodEstimate(
            ExtractionMethod.TRIGGER,
            capture_ms=capture,
            transport_ms=transport,
            apply_ms=self._value_delta_apply_ms(shape, touched),
        )

    def _estimate_log_scan(
        self, shape: WindowShape, profile: TableProfile
    ) -> MethodEstimate:
        c = self._costs
        touched = shape.statements
        # Read the archive-log bytes the window produced and parse the
        # relevant records out of everything else in the log.
        log_bytes = touched * (profile.row_bytes + 32)
        capture = c.file_read(log_bytes) + touched * c.ascii_parse_row
        transport = c.network_transfer(touched * profile.row_bytes)
        return MethodEstimate(
            ExtractionMethod.LOG_SCAN,
            capture_ms=capture,
            transport_ms=transport,
            apply_ms=self._value_delta_apply_ms(shape, touched),
        )

    # -------------------------------------------------------------- decisions
    def decide(self, shape: WindowShape) -> RoutingDecision:
        """Route one table's window to its cheapest method.

        Pure computation — no virtual time is charged and no events are
        recorded here; :meth:`route_window` records the decision.
        """
        estimates = self.estimate(shape)
        op_delta = estimates[0]
        best = op_delta
        for estimate in estimates[1:]:
            if estimate.total_ms * STAGING_BIAS < best.total_ms:
                best = estimate
        # Only methods with a staged warehouse path actually divert the
        # window; a cheaper pure-value-delta price is advisory (the ops
        # are already captured as op-deltas) and keeps replay.
        chosen = (
            best.method if best.method in STAGING_METHODS else op_delta.method
        )
        decision = RoutingDecision(
            table=shape.table,
            method=chosen,
            estimates=estimates,
            shape=shape,
            backlog_depth=shape.backlog_depth(self.profile_for(shape.table)),
        )
        self.decisions.append(decision)
        return decision

    def route_window(
        self,
        groups: Iterable[OpDeltaTransaction],
        at_ms: float | None = None,
    ) -> tuple[list[OpDeltaTransaction], list[RoutingDecision]]:
        """Split one window: groups to replay vs tables to stage.

        Returns the surviving groups (ops on staged tables removed,
        emptied groups dropped) and every per-table decision.  Each
        decision is recorded as a ``ROUTED`` lifecycle event; each op
        routed away is settled as ``PRUNED`` with stage
        ``switcher-<method>``, so lineage conservation closes.
        """
        window = list(groups)
        tables = sorted({op.table for g in window for op in g.operations})
        decisions = [
            self.decide(WindowShape.from_window(table, window))
            for table in tables
        ]
        staged = {d.table: d for d in decisions if d.use_staging}
        recorder = ambient_pipeline()
        if recorder is not None:
            for decision in decisions:
                chosen = decision.estimate_for(decision.method)
                recorder.record_routed(
                    decision.table,
                    decision.method.value,
                    at_ms=at_ms if at_ms is not None else 0.0,
                    detail=(
                        f"backlog={decision.backlog_depth:.2f} "
                        f"est={chosen.total_ms:.1f}ms"
                    ),
                )
        if not staged:
            return window, decisions
        kept: list[OpDeltaTransaction] = []
        for group in window:
            surviving: list[OpDelta] = []
            for op in group.operations:
                decision = staged.get(op.table)
                if decision is None:
                    surviving.append(op)
                elif recorder is not None:
                    recorder.record_pruned(
                        op,
                        at_ms=at_ms,
                        stage=f"switcher-{decision.method.value}",
                    )
            if not surviving:
                continue
            if len(surviving) == len(group.operations):
                kept.append(group)
            else:
                kept.append(
                    OpDeltaTransaction(
                        txn_id=group.txn_id,
                        operations=surviving,
                        committed_at=group.committed_at,
                    )
                )
        return kept, decisions

    @property
    def staged_tables(self) -> list[str]:
        """Tables the most recent window diverted to bulk-load staging."""
        latest: dict[str, RoutingDecision] = {}
        for decision in self.decisions:
            latest[decision.table] = decision
        return sorted(t for t, d in latest.items() if d.use_staging)
