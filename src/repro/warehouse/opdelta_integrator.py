"""Op-Delta integration: per-source-transaction, online (§4.1).

Each committed source transaction's operations are transformed and replayed
as one self-contained warehouse transaction; materialized views are
maintained inside the same transaction.  Because every group is short and
self-contained, the integrator can interleave with OLAP queries — the
availability experiment (:mod:`repro.warehouse.scheduler`) exploits the
per-transaction timings this integrator reports.

Every apply configuration — serial (:meth:`OpDeltaIntegrator.integrate`),
row-batched and columnar (:meth:`OpDeltaIntegrator.integrate_batched`) —
runs the same staged loop with one commit site; the entries only choose
the transactional units and the statement executor.

When an :class:`~repro.analysis.OpDeltaAnalyzer` is supplied (or the
capture pipeline already attached analysis records to the operations), the
integrator additionally:

* **skips** statements the analyzer pruned as irrelevant to every view and
  mirror;
* **pins** time-dependent statements — ``NOW()`` is rewritten to the
  capture timestamp so the replay is faithful to the source execution;
* **falls back** to the captured before image for volatile statements that
  cannot be replayed (a volatile DELETE is re-expressed as a
  delete-by-key of the imaged rows; a volatile UPDATE/INSERT without a
  recoverable after state is rejected with a pointer at hybrid capture).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Sequence

from ..analysis.analyzer import AnalysisRecord, OpDeltaAnalyzer
from ..analysis.certify import (
    InterferenceSanitizer,
    LaneSchedule,
    certify,
    single_lane_schedule,
)
from ..analysis.conflict import ConflictGraph
from ..analysis.safety import Determinism, pin_time_functions
from ..columnar import ColumnarApplier, RowApplier
from ..core.opdelta import OpDelta, OpDeltaTransaction, OpKind
from ..core.transform import StatementTransformer
from ..engine.session import Session
from ..engine.transactions import Transaction
from ..errors import WarehouseError
from ..obs.context import ambient_metrics
from ..obs.pipeline.context import ambient_pipeline
from ..obs.pipeline.recorder import PipelineRecorder
from ..semantics.planner import MaintenancePlan
from ..sql import ast_nodes as ast
from .aggregates import MaterializedAggregateView
from .value_integrator import IntegrationReport, delete_by_key, transactional_unit
from .views import MaterializedView

#: An op settled without a replay — (op, its source transaction, virtual
#: time of the decision, pruned?) — held back for the post-commit record
#: stage; not-pruned means a volatile DELETE whose before image is empty.
_Skipped = tuple[OpDelta, OpDeltaTransaction, float, bool]


class OpDeltaIntegrator:
    """Replays Op-Delta transaction groups onto mirrors and views.

    Each view takes the path :func:`~repro.core.selfmaint.replay_kind`
    decides for an operation's statement shape.  ``plans`` (a
    :class:`~repro.semantics.planner.MaintenancePlan` catalog, keyed by view
    name) are what capture fetched images by; apply reads no rule from
    them.  The integrator rejects at construction plans that declare a view
    not self-maintainable — attach such views to a source-query refresh
    path instead of this integrator.

    Supplied plans are additionally put through the delta-rule verifier
    (:class:`~repro.analysis.verify.DeltaRuleVerifier`) as a pre-flight:
    a plan whose certificate comes back ``REFUTED`` raises
    :class:`~repro.errors.WarehouseError` with the counterexample, so an
    unsound rule can never silently corrupt a view.  Certificates are
    cached process-wide by (view SQL hash, schema fingerprint) — the
    proof is pay-once — and stamped onto every
    :class:`~repro.warehouse.value_integrator.IntegrationReport` this
    integrator produces.  ``verifier=`` supplies a configured verifier
    (scope bounds, a private cache, a metered clock, a planted fault).
    """

    def __init__(
        self,
        session: Session,
        transformer: StatementTransformer | None = None,
        views: Sequence[MaterializedView] = (),
        analyzer: OpDeltaAnalyzer | None = None,
        aggregate_views: Sequence[MaterializedAggregateView] = (),
        plans: Mapping[str, MaintenancePlan] | None = None,
        sanitizer: InterferenceSanitizer | None = None,
        verifier: object | None = None,
    ) -> None:
        self._session = session
        self._sanitizer = sanitizer
        self._views = list(views)
        self._aggregate_views = list(aggregate_views)
        self._transformer = (
            transformer if transformer is not None else StatementTransformer()
        )
        self._analyzer = analyzer
        self._plans = dict(plans) if plans is not None else {}
        if analyzer is not None:
            self._require_coverage(analyzer)
        #: base table -> names of the views an op on it maintains (lineage).
        self._views_by_table: dict[str, list[str]] = {}
        for view in [*self._views, *self._aggregate_views]:
            self._views_by_table.setdefault(
                view.definition.base_table, []
            ).append(view.definition.name)
            plan = self._plans.get(view.definition.name)
            if plan is None:
                continue
            if not plan.valid:
                raise WarehouseError(
                    f"view {view.definition.name!r} has an invalid maintenance "
                    "plan: "
                    + "; ".join(d.render() for d in plan.diagnostics)
                )
            if not plan.self_maintainable:
                raise WarehouseError(
                    f"view {view.definition.name!r} is planned "
                    f"{plan.classification.value}; it cannot be maintained by "
                    "the op-delta integrator"
                )
        #: view name -> certificate stamp, copied onto every report.
        self._plan_certificates: dict[str, str] = {}
        if self._plans:
            self._verify_plans(verifier)
        #: The two statement executors: the row path, and the columnar
        #: engine whose kernel cache survives across windows.
        self._rows = RowApplier(session)
        self._columnar = ColumnarApplier(session)

    def _require_coverage(self, analyzer: OpDeltaAnalyzer) -> None:
        """Refuse an analyzer that may prune or misjudge what a view needs.

        Relevance keeps a statement only for the views, aggregate views and
        mirrored tables the analyzer was told about; a view it has never
        heard of would silently miss every statement pruned on its behalf.
        An SPJ view must moreover be among ``analyzer.views`` as defined
        here: the analyzer's commutation record learns from them which
        DELETEs a view replays from their images, and a view it only knows
        as a mirrored table it cannot keep apart.  An aggregate view
        replays every DELETE from its image, so mirroring its base table
        is enough.
        """
        for view in self._views:
            if view.definition not in analyzer.views:
                raise WarehouseError(
                    f"view {view.definition.name!r} is maintained by this "
                    "integrator but not among its analyzer's views as defined "
                    "here: the conflict graph could not tell apart the "
                    "DELETEs it replays differently"
                )
        known = {d.name for d in (*analyzer.views, *analyzer.aggregate_views)}
        for view in self._aggregate_views:
            definition = view.definition
            if (
                definition.name not in known
                and definition.base_table not in analyzer.mirrored_tables
            ):
                raise WarehouseError(
                    f"view {definition.name!r} is maintained by this integrator "
                    "but unknown to its analyzer (not among its views or "
                    f"aggregate views, and {definition.base_table!r} is not a "
                    "mirrored table): relevance pruning would drop statements "
                    "the view depends on"
                )

    def _verify_plans(self, verifier: object | None) -> None:
        """Pre-flight: demand a VERIFIED certificate for every plan used.

        Imported lazily — the verifier constructs the warehouse view
        classes, which this module defines the integrator around.
        """
        from ..analysis.verify import DeltaRuleVerifier

        if verifier is None:
            verifier = DeltaRuleVerifier()
        assert isinstance(verifier, DeltaRuleVerifier)
        database = self._session.database
        for view in [*self._views, *self._aggregate_views]:
            plan = self._plans.get(view.definition.name)
            if plan is None:
                continue
            definition = view.definition
            dim_schema = None
            join = getattr(definition, "join", None)
            if join is not None and join.columns and database.has_table(join.table):
                dim_schema = database.table(join.table).schema
            certificate = verifier.certify_plan(
                plan, definition, view.base_schema, dim_schema=dim_schema
            )
            self._plan_certificates[definition.name] = certificate.stamp
            if not certificate.verified:
                raise WarehouseError(
                    f"maintenance plan for view {definition.name!r} was "
                    "refuted by the delta-rule verifier; refusing to drive "
                    "the view with an unsound rule:\n" + certificate.render()
                )

    def integrate(
        self, groups: Iterable[OpDeltaTransaction]
    ) -> IntegrationReport:
        """Apply each source transaction as its own warehouse transaction.

        The serial configuration of :meth:`_run`: one unit per source
        transaction, all on a single lane, statements replayed on the row
        path.  When an analyzer is attached the given order is first
        certified as a single-lane schedule — out-of-order windows are
        rejected before any statement runs (pure computation, no virtual
        time).
        """
        groups = list(groups)
        report = IntegrationReport(mode="op-delta")
        report.plan_certificates = dict(self._plan_certificates)
        if not groups:
            return report
        analyzer = self._analyzer
        graph = analyzer.conflict_graph(groups) if analyzer is not None else None
        units = [
            (f"op-delta integration of source transaction {g.txn_id}", [g])
            for g in groups
        ]
        report.per_transaction_ms = self._run(
            groups, graph, single_lane_schedule(groups), units, report,
            self._rows,
        )
        return report

    def integrate_batched(
        self,
        groups: Iterable[OpDeltaTransaction],
        graph: ConflictGraph | None = None,
        *,
        schedule: LaneSchedule | None = None,
        columnar: bool = False,
    ) -> IntegrationReport:
        """Group-commit apply: one warehouse transaction per conflict component.

        The per-source-transaction mode of :meth:`integrate` buys maximum
        interleaving with OLAP queries at the price of one warehouse
        begin/commit *per captured transaction*.  For a compacted shippable
        window (:mod:`repro.compaction`) that overhead dominates, so this
        configuration of :meth:`_run`:

        * makes each conflict-graph component **one** unit (capture order
          inside the component is kept, and components are mutually
          independent, so warehouse state is identical to the
          per-transaction replay — boundaries are merged, never
          reordered);
        * reports per-component apply times (``report.per_component_ms``)
          that :func:`repro.warehouse.scheduler.run_conflict_schedule`
          packs onto parallel worker lanes.

        ``graph`` defaults to the attached analyzer's conflict graph over
        ``groups``.  ``schedule`` is the lane assignment the pre-flight
        certifies and the sanitizer observes on (e.g. from
        :func:`~repro.analysis.certify.lpt_schedule`); without one the
        actual serial component order is certified.

        **Columnar mode.**  ``columnar=True`` swaps the statement executor
        for :class:`~repro.columnar.apply.ColumnarApplier`: one image
        scan per touched table per component, kernels compiled once per
        cache key and reused across windows, and the engine's batch DML
        (columnar CPU factor, group WAL appends), falling back to the row
        path across a compile barrier.  Every other stage is the same code, so the
        certifier, sanitizer and auditor contracts are unchanged and the
        final state is bit-for-bit the row path's.
        """
        groups = list(groups)
        report = IntegrationReport(
            mode="op-delta-columnar" if columnar else "op-delta-batched"
        )
        report.plan_certificates = dict(self._plan_certificates)
        if not groups:
            return report
        if graph is None:
            if self._analyzer is None:
                raise WarehouseError(
                    "integrate_batched needs a conflict graph, or an "
                    "analyzer to build one"
                )
            graph = self._analyzer.conflict_graph(groups)
        by_id = {group.txn_id: group for group in groups}
        units = [
            (f"batched op-delta integration of component {tuple(c)}", members)
            for c in graph.components
            if (members := [by_id[txn_id] for txn_id in c if txn_id in by_id])
        ]
        if schedule is None:
            # The batched integrator itself applies components serially
            # in graph order; certify that actual order.
            schedule = LaneSchedule(
                lanes=(tuple(t for c in graph.components for t in c),)
            )
        applier = self._columnar if columnar else None
        before = applier.counters() if applier is not None else ()
        report.per_component_ms = self._run(
            groups, graph, schedule, units, report, applier or self._rows
        )
        report.components = len(report.per_component_ms)
        if applier is not None:
            (
                report.columnar_statements,
                report.columnar_rows,
                report.columnar_fallbacks,
                report.kernel_compiles,
                report.kernel_cache_hits,
            ) = (now - then for now, then in zip(applier.counters(), before))
        metrics = ambient_metrics()
        if metrics is not None:
            metrics.counter("warehouse.batched.components").inc(report.components)
        return report

    def _run(
        self,
        groups: Sequence[OpDeltaTransaction],
        graph: ConflictGraph | None,
        schedule: LaneSchedule,
        units: Sequence[tuple[str, Sequence[OpDeltaTransaction]]],
        report: IntegrationReport,
        executor: RowApplier,
    ) -> list[float]:
        """The one apply pipeline every configuration runs.

        *Pre-flight* (:meth:`_preflight`: graph coverage, schedule
        certification), then per unit: *begin* →
        *prepare/apply ops* → *maintain views* (inside
        :meth:`_apply_op`) → *commit* → *record* lineage and sanitizer
        observations → *time* the unit.  The public entries only choose
        ``units`` (which transactions commit together, and how a failure
        is described) and ``executor``.  Returns each unit's virtual apply
        time and stamps ``report.elapsed_ms``.
        """
        clock = self._session.database.clock
        started = clock.now
        if graph is not None:
            self._preflight(groups, graph, schedule, report)
        unit_ms: list[float] = []
        for what, members in units:
            unit_started = clock.now
            executor.begin_component()
            skipped: list[_Skipped] = []
            applied: list[tuple[OpDeltaTransaction, list[OpDelta]]] = []
            with transactional_unit(self._session, what) as txn:
                for group in members:
                    settled: list[OpDelta] = []
                    for op in group.operations:
                        prepared = self._prepare(op, group, report, skipped)
                        if prepared is not None:
                            settled.append(prepared)
                            self._apply_op(prepared, txn, report, executor)
                    applied.append((group, settled))
            self._record(skipped, applied, schedule)
            report.transactions += len(members)
            unit_ms.append(clock.now - unit_started)
        report.elapsed_ms = clock.now - started
        return unit_ms

    def _preflight(
        self,
        groups: Sequence[OpDeltaTransaction],
        graph: ConflictGraph,
        schedule: LaneSchedule,
        report: IntegrationReport,
    ) -> None:
        """Mandatory checks before any statement runs.

        The graph must cover the window being applied, and — whenever an
        analyzer is attached — the proposed apply order must be statically
        proven serializable by :func:`~repro.analysis.certify.certify`,
        which reads the graph's commutation record; a ``REJECTED``
        certificate raises with the positioned ``RACE*`` findings.
        """
        covered = {txn_id for c in graph.components for txn_id in c}
        missing = sorted({g.txn_id for g in groups} - covered)
        if missing:
            raise WarehouseError(
                f"conflict graph does not cover transactions {missing}; "
                "build it over the same window being applied"
            )
        if self._analyzer is None:
            return
        certificate = certify(groups, graph, schedule)
        report.certificate_verdict = certificate.verdict
        if not certificate.certified:
            findings = [f.render() for f in certificate.findings]
            raise WarehouseError(
                "schedule certification rejected the proposed apply order "
                f"({len(findings)} finding(s)): " + "; ".join(findings)
            )

    def _record(
        self,
        skipped: list[_Skipped],
        applied: list[tuple[OpDeltaTransaction, list[OpDelta]]],
        schedule: LaneSchedule,
    ) -> None:
        """Post-commit: lineage to the recorder, replays to the sanitizer.

        Nothing is reported before the unit's commit, so a rolled-back
        unit leaves no APPLIED/PRUNED event behind and a retry records
        each op once.  Ops settled without a replay keep the virtual time
        their decision was made at; replayed ops are stamped with the
        commit time and observed on their schedule lane (timestamped with
        their own ``captured_at`` — no clock reads, zero virtual cost).
        """
        recorder = ambient_pipeline()
        now = self._session.database.clock.now
        if recorder is not None:
            for op, group, at_ms, pruned in skipped:
                if pruned:
                    recorder.record_pruned(op, at_ms=at_ms, stage="apply")
                else:
                    self._record_applied(recorder, op, group, at_ms)
        for group, settled in applied:
            if recorder is not None:
                for op in settled:
                    self._record_applied(recorder, op, group, now)
            if self._sanitizer is not None:
                lane = schedule.lane_of(group.txn_id) or 0
                for op in settled:
                    self._sanitizer.observe(lane, op, at_ms=op.captured_at)

    def _record_applied(
        self,
        recorder: PipelineRecorder,
        op: OpDelta,
        group: OpDeltaTransaction,
        at_ms: float,
    ) -> None:
        recorder.record_applied(
            op,
            at_ms=at_ms,
            committed_at=group.committed_at,
            views=self._views_by_table.get(op.table, ()),
        )

    def _apply_op(
        self,
        op: OpDelta,
        txn: Transaction,
        report: IntegrationReport,
        executor: RowApplier,
    ) -> None:
        """Replay one prepared operation onto the mirror and every view.

        ``executor`` runs the mirror statement and maintains the SPJ views —
        row at a time, or as compiled batch programs that fall back to
        the row path across a compile barrier.
        """
        with self._session.database.tracer.span(
            "warehouse.apply.statement", table=op.table
        ):
            statement = self._transformer.transform(op.statement)
            affected = executor.apply_mirror(statement, txn)
        report.statements_issued += 1
        report.rows_affected += affected
        for view in self._views:
            executor.apply_view(view, op, txn)
        for agg in self._aggregate_views:
            if op.table == agg.definition.base_table:
                agg.apply_operation(op, txn)

    # ------------------------------------------------------- analyzer-driven
    def _prepare(
        self,
        op: OpDelta,
        group: OpDeltaTransaction,
        report: IntegrationReport,
        skipped: list[_Skipped],
    ) -> OpDelta | None:
        """Apply the static-analysis verdict to one operation.

        Returns the (possibly rewritten) operation to replay, or ``None``
        when the statement was pruned or resolved entirely by fallback —
        such an op joins ``skipped`` with the virtual time of the
        decision, for the post-commit record stage.
        """
        record = self._record_for(op)
        if record is None:
            return op
        if record.pruned:
            report.statements_pruned += 1
            skipped.append((op, group, self._session.database.clock.now, True))
            return None
        if record.pinnable:
            pinned = pin_time_functions(op.statement, op.captured_at)
            report.statements_pinned += 1
            return dataclasses.replace(
                op, statement_text=pinned.to_sql(), _parsed=pinned
            )
        if record.determinism is Determinism.VOLATILE:
            rewritten = self._volatile_fallback(op, report)
            if rewritten is None:
                # The delete matched no rows at the source — a no-op
                # replay still settles the op for lineage conservation.
                skipped.append(
                    (op, group, self._session.database.clock.now, False)
                )
            return rewritten
        return op

    def _rejected(self, op: OpDelta, reason: str, message: str) -> WarehouseError:
        """Settle an unreplayable op as REJECTED; the error to raise for it."""
        recorder = ambient_pipeline()
        if recorder is not None:
            recorder.record_rejected_op(
                op, at_ms=self._session.database.clock.now, reason=reason
            )
        return WarehouseError(message)

    def _record_for(self, op: OpDelta) -> AnalysisRecord | None:
        if op.analysis is not None:
            return op.analysis
        if self._analyzer is not None:
            return self._analyzer.analyze_op(op)
        return None

    def _volatile_fallback(
        self, op: OpDelta, report: IntegrationReport
    ) -> OpDelta | None:
        """Re-express a volatile statement from its captured before image.

        Only a DELETE can be recovered this way: the before image names the
        rows that disappeared, and removing them by key is order- and
        time-independent.  A volatile UPDATE or INSERT has an after state
        that only the source execution knew, so it cannot be replayed from
        the operation at all.
        """
        if op.kind is not OpKind.DELETE or op.before_image is None:
            raise self._rejected(
                op,
                f"volatile {op.kind.value} without a recoverable after state",
                f"volatile {op.kind.value} on {op.table!r} cannot be replayed "
                "from the operation alone; capture it with a hybrid policy "
                "(before images) or route the table through value deltas",
            )
        # The image holds *source* rows and the DELETE is a source statement
        # (the transformer carries it onto the warehouse), so the key is read
        # and named as the source has it.  Transforming the volatile
        # statement itself could fail on the very expressions (RANDOM() etc.)
        # that forced the fallback.
        mapping = self._transformer.mapping_for(op.table)
        schema = self._session.database.table(mapping.target_table).schema
        key = None if schema.primary_key is None else mapping.source_column(
            schema.primary_key
        )
        # A projection with no source column order locates nothing.
        columns = mapping.source_columns or (
            () if mapping.column_map else schema.column_names
        )
        if key is None or key not in columns:
            raise self._rejected(
                op,
                "volatile DELETE fallback without a primary key",
                f"volatile DELETE fallback on {op.table!r} needs a primary "
                "key the mapping locates in the imaged rows",
            )
        key_index = columns.index(key)
        report.fallback_images_applied += 1
        if not op.before_image:
            return None
        keys = [row[key_index] for row in op.before_image]
        if len(keys) == 1:
            rewritten = delete_by_key(op.table, key, keys[0]).bind((keys[0],), ())
        else:  # as many shapes as images: a one-off tree
            rewritten = ast.DeleteStmt(
                op.table, ast.InList(ast.ColumnRef(key), tuple(map(ast.Literal, keys)))
            )
        return dataclasses.replace(
            op, statement_text=rewritten.to_sql(), _parsed=rewritten
        )
