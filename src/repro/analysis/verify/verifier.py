"""The delta-rule verifier: bounded equivalence proofs for compiled plans.

For each (view plan x operation kind) the verifier exhaustively runs the
small scope enumerated by :mod:`~repro.analysis.verify.domain`: it seeds
a scratch database with each abstract micro-database, captures the
operation exactly as the pipeline would (lean when the compiled
:class:`~repro.semantics.planner.DeltaRule` claims op-only, with
python-evaluated before images when the rule asks for them), applies it
through the real view maintenance code, recomputes the view from the
mutated base **via the SQL executor** — it runs the SELECT the view
stands for (:func:`~repro.warehouse.views.contents`), an oracle
independent of the view's own incremental machinery, so a corrupted apply
path cannot vouch for itself — and compares states.

Soundness of the verdict is scoped, not absolute: ``VERIFIED`` means *no
divergence exists within the enumerated scope* (every predicate
boundary, NULL, duplicate key, empty group and fresh key combination up
to ``max_rows``).  The maintenance rules under test are piecewise
per-row decisions over exactly those case splits, which is why the small
scope is where their bugs live; ``REFUTED`` is unconditional — it comes
with a concrete, replayable counterexample.

Scratch databases run on private virtual clocks by default, so
verification costs the pipeline zero virtual time; pass ``clock=`` to
meter the proof cost explicitly (the bench does, to show the pay-once
cache amortising it away).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from ...clock import VirtualClock
from ...core.opdelta import OpDelta, OpKind
from ...engine.database import Database
from ...engine.schema import TableSchema
from ...engine.table import InsertMode
from ...errors import AnalysisError, ReproError, WarehouseError
from ...semantics.diagnostics import Severity
from ...sql.expressions import NO_SESSION, RowBinding, compile_predicate
from ...warehouse.aggregates import MaterializedAggregateView
from ...warehouse.views import MaterializedView, contents, norm_number, row_order
from .certificate import (
    DEFAULT_CERTIFICATE_CACHE,
    CertificateCache,
    PlanCertificate,
    schema_fingerprint,
    verdict_for,
    view_sql_hash,
)
from .domain import (
    MicroOp,
    Scope,
    ScopeConfig,
    aggregate_shape,
    enumerate_scope,
    spj_shape,
)
from .findings import (
    ERROR_CODES,
    RULE_AGG_RETRACT,
    RULE_DIVERGENCE,
    RULE_NOT_IDEMPOTENT,
    RULE_READS_BASE,
    RULE_SOURCE_UNUSED,
    Counterexample,
    VerifyFinding,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...core.selfmaint import ViewDefinition
    from ...semantics.planner import DeltaRule, MaintenancePlan
    from ...warehouse.aggregates import AggregateViewDefinition

#: Bump on any change to the scenario semantics: stored certificates for
#: older verifier versions must not satisfy the new pre-flight.
VERIFIER_VERSION = 1

#: ``(database, definition, base_schema) -> view object`` construction
#: hooks.  The defaults build the production view classes; the bench's
#: corrupt-delta-rule drill swaps in a deliberately broken subclass.
ViewFactory = Callable[[Database, Any, TableSchema], Any]


@dataclass
class _ScenarioOutcome:
    """What one (micro-database, op) scenario did."""

    skipped: bool = False  # the base itself rejected the op
    crashed: bool = False
    needs_image_crash: bool = False
    source_query_crash: bool = False
    diverged: bool = False
    redelivery_diverged: bool = False
    error: str = ""
    observed: str = ""
    expected: str = ""
    before_image: tuple[tuple[Any, ...], ...] | None = None
    #: Aggregate scenarios: a group emptied or a NULL contribution moved.
    empty_or_null_group: bool = False

    @property
    def clean(self) -> bool:
        return not (self.skipped or self.crashed or self.diverged)


class _Subject:
    """One view under test: definition, schema, factory, oracle shape."""

    def __init__(
        self,
        plan: "MaintenancePlan",
        definition: Any,
        schema: TableSchema,
        dim_schema: TableSchema | None,
        view_factory: ViewFactory,
        aggregate_factory: ViewFactory,
    ) -> None:
        self.plan = plan
        self.definition = definition
        self.schema = schema
        self.dim_schema = dim_schema
        self.is_aggregate = plan.view_kind == "aggregate"
        self.factory = aggregate_factory if self.is_aggregate else view_factory
        if self.is_aggregate:
            self.shape = aggregate_shape(definition, schema)
        else:
            self.shape = spj_shape(definition, schema, dim_schema)

    @property
    def group_sensitive_columns(self) -> tuple[int, ...]:
        """Base-row positions whose NULLs make aggregate retraction hard."""
        if not self.is_aggregate:
            return ()
        positions = [
            self.schema.column_index(name)
            for name in self.definition.group_by
        ]
        positions.extend(
            self.schema.column_index(spec.argument)
            for spec in self.definition.aggregates
            if spec.argument is not None
        )
        return tuple(dict.fromkeys(positions))


class DeltaRuleVerifier:
    """Small-scope bounded model checker for maintenance plans."""

    def __init__(
        self,
        *,
        cache: CertificateCache | None = None,
        clock: VirtualClock | None = None,
        view_factory: ViewFactory | None = None,
        aggregate_factory: ViewFactory | None = None,
    ) -> None:
        self._scope = ScopeConfig()
        self.cache = cache if cache is not None else DEFAULT_CERTIFICATE_CACHE
        self._clock = clock
        self._view_factory: ViewFactory = (
            view_factory if view_factory is not None else MaterializedView
        )
        self._aggregate_factory: ViewFactory = (
            aggregate_factory
            if aggregate_factory is not None
            else MaterializedAggregateView
        )

    # ------------------------------------------------------------ certifying
    def certify_plan(
        self,
        plan: "MaintenancePlan",
        definition: "ViewDefinition | AggregateViewDefinition",
        schema: TableSchema,
        *,
        dim_schema: TableSchema | None = None,
    ) -> PlanCertificate:
        """Verify one compiled plan; cached by (SQL hash, schema print)."""
        if not plan.valid:
            raise AnalysisError(
                f"plan for view {plan.view!r} is semantically invalid; "
                "fix its diagnostics before asking for a certificate"
            )
        sql_hash = view_sql_hash(definition, plan, self._scope, VERIFIER_VERSION)
        schema_fp = schema_fingerprint(schema, dim_schema)
        cached = self.cache.lookup(sql_hash, schema_fp)
        if cached is not None:
            return cached

        subject = _Subject(
            plan,
            definition,
            schema,
            dim_schema,
            self._view_factory,
            self._aggregate_factory,
        )
        scope = enumerate_scope(subject.shape, schema, self._scope)
        findings, counts, databases_run = self._check_subject(subject, scope)
        certificate = PlanCertificate(
            view=plan.view,
            verdict=verdict_for(tuple(findings)),
            view_sql_hash=sql_hash,
            schema_fingerprint=schema_fp,
            findings=tuple(findings),
            scenarios=sum(counts.values()),
            scenarios_by_kind=tuple(sorted(counts.items())),
            databases=databases_run,
            truncated=tuple(sorted(scope.truncated.items())),
            scope=self._scope,
        )
        return self.cache.store(certificate)

    def certify_catalog(
        self,
        plans: Mapping[str, "MaintenancePlan"],
        definitions: Mapping[str, Any],
        schemas: Mapping[str, TableSchema],
    ) -> dict[str, PlanCertificate]:
        """Certify every plan; ``definitions`` is keyed by view name and
        ``schemas`` by table name (joined dimension schemas included)."""
        certificates: dict[str, PlanCertificate] = {}
        for name, plan in plans.items():
            definition = definitions[name]
            schema = schemas[plan.base_table]
            dim_schema = None
            join = getattr(definition, "join", None)
            if join is not None and join.columns:
                dim_schema = schemas.get(join.table)
            certificates[name] = self.certify_plan(
                plan, definition, schema, dim_schema=dim_schema
            )
        return certificates

    def replay(
        self,
        plan: "MaintenancePlan",
        definition: "ViewDefinition | AggregateViewDefinition",
        schema: TableSchema,
        finding: VerifyFinding,
    ) -> bool:
        """Re-execute a finding's counterexample concretely.

        Returns whether the scenario misbehaves again (diverges, crashes,
        or — for RULE005 — diverges under redelivery).  A counterexample
        that replays clean would mean the finding was spurious.
        """
        example = finding.counterexample
        if example is None:
            raise AnalysisError(f"finding {finding.code} has no counterexample")
        subject = _Subject(
            plan,
            definition,
            schema,
            None,
            self._view_factory,
            self._aggregate_factory,
        )
        rule = self._rule_under_test(subject, OpKind(example.op_kind))
        context = self._build_context(subject, example.rows, example.dim_rows)
        outcome = self._run_scenario(
            subject,
            context,
            MicroOp(example.op_sql, example.op_kind),
            rule,
            probe_redelivery=finding.code == RULE_NOT_IDEMPOTENT,
        )
        if finding.code == RULE_NOT_IDEMPOTENT:
            return outcome.redelivery_diverged
        return outcome.crashed or outcome.diverged

    # --------------------------------------------------------------- checking
    def _rule_under_test(
        self, subject: _Subject, kind: OpKind
    ) -> "DeltaRule | None":
        """The rule a scenario applies: ``None`` probes the per-statement
        fallback (how source-query plans are checked for RULE003)."""
        from ...semantics.planner import RuleAction, ViewClass

        if subject.plan.classification is ViewClass.SOURCE_QUERY_NEEDED:
            return None
        rule = subject.plan.rule_for(kind)
        if rule.action is RuleAction.SOURCE_QUERY:  # pragma: no cover
            return None
        return rule

    def _check_subject(
        self, subject: _Subject, scope: Scope
    ) -> tuple[list[VerifyFinding], dict[str, int], int]:
        from ...semantics.planner import ViewClass

        source_query_plan = (
            subject.plan.classification is ViewClass.SOURCE_QUERY_NEEDED
        )
        findings: list[VerifyFinding] = []
        emitted: set[tuple[str, str]] = set()
        dead_kinds: set[str] = set()
        counts: dict[str, int] = {kind: 0 for kind in scope.ops_by_kind}
        probes: dict[str, int] = {kind: 0 for kind in scope.ops_by_kind}
        source_consulted = False
        fallback_unclean = False
        databases_run = 0

        def emit(
            code: str,
            kind: str,
            message: str,
            example: Counterexample | None,
        ) -> None:
            if (code, kind) in emitted:
                return
            emitted.add((code, kind))
            findings.append(
                VerifyFinding(
                    code=code,
                    severity=(
                        Severity.ERROR if code in ERROR_CODES else Severity.WARNING
                    ),
                    view=subject.plan.view,
                    kind=kind,
                    message=message,
                    counterexample=example,
                )
            )

        for rows in scope.databases:
            databases_run += 1
            for kind, ops in scope.ops_by_kind.items():
                if kind in dead_kinds:
                    continue
                rule = self._rule_under_test(subject, OpKind(kind))
                for op in ops:
                    probe = (
                        rule is not None
                        and probes[kind] < self._scope.redelivery_probes
                        and (RULE_NOT_IDEMPOTENT, kind) not in emitted
                    )
                    # Every scenario gets a pristine scratch database:
                    # abort-compensated storage is never reused, so one
                    # scenario can never contaminate the next.
                    try:
                        context = self._build_context(
                            subject, rows, scope.dim_rows
                        )
                    except ReproError as exc:
                        emit(
                            RULE_DIVERGENCE,
                            "*",
                            f"scope database could not be built: {exc}",
                            Counterexample(
                                rows=rows, op_sql="", op_kind="*",
                                error=str(exc),
                            ),
                        )
                        return findings, counts, databases_run
                    outcome = self._run_scenario(
                        subject, context, op, rule, probe_redelivery=probe
                    )
                    if outcome.skipped:
                        continue
                    counts[kind] += 1
                    if probe:
                        probes[kind] += 1
                    example = Counterexample(
                        rows=rows,
                        op_sql=op.sql,
                        op_kind=kind,
                        before_image=outcome.before_image,
                        dim_rows=scope.dim_rows,
                        observed=outcome.observed,
                        expected=outcome.expected,
                        error=outcome.error,
                    )
                    if outcome.source_query_crash:
                        source_consulted = True
                        continue
                    if rule is None and not outcome.clean:
                        # Fallback probing of a source-query plan: an
                        # unclean fallback is not a refutation (the plan
                        # never claimed the fallback works), but it does
                        # mean "never consulted" cannot be concluded.
                        fallback_unclean = True
                        continue
                    if outcome.needs_image_crash:
                        emit(
                            RULE_READS_BASE,
                            kind,
                            "plan claims this kind applies from the "
                            "operation alone, but the rule demanded "
                            "captured base state (before images)",
                            example,
                        )
                        dead_kinds.add(kind)
                    elif outcome.crashed or outcome.diverged:
                        retraction = (
                            subject.is_aggregate
                            and kind != "INSERT"
                            and outcome.empty_or_null_group
                        )
                        emit(
                            RULE_AGG_RETRACT if retraction else RULE_DIVERGENCE,
                            kind,
                            (
                                "aggregate retraction mishandles an empty "
                                "or NULL group"
                                if retraction
                                else "rule-maintained state diverges from "
                                "recomputation"
                            )
                            + (
                                f" (apply crashed: {outcome.error})"
                                if outcome.crashed
                                else ""
                            ),
                            example,
                        )
                        dead_kinds.add(kind)
                    elif outcome.redelivery_diverged:
                        emit(
                            RULE_NOT_IDEMPOTENT,
                            kind,
                            "re-applying the same operation silently lands "
                            "on a different state; at-least-once transport "
                            "redelivery relies on the integrator's "
                            "per-transaction dedup",
                            example,
                        )

        if (
            source_query_plan
            and not source_consulted
            and not fallback_unclean
            and any(counts.values())
        ):
            emit(
                RULE_SOURCE_UNUSED,
                "*",
                "plan is classified source-query-needed, but every "
                "in-scope scenario applied from captured information "
                "alone; the classification is over-conservative",
                None,
            )
        return findings, counts, databases_run

    # ------------------------------------------------------------- scenarios
    def _build_context(
        self,
        subject: _Subject,
        rows: tuple[tuple[Any, ...], ...],
        dim_rows: tuple[tuple[Any, ...], ...],
    ) -> dict[str, Any]:
        """One scratch database seeded with a micro-database + the view."""
        clock = self._clock if self._clock is not None else VirtualClock()
        database = Database(f"verify-{subject.plan.view}", clock=clock)
        table = database.create_table(subject.schema)
        join = getattr(subject.definition, "join", None)
        if join is not None and subject.dim_schema is not None:
            dim_table = database.create_table(subject.dim_schema)
            txn = database.begin()
            for row in dim_rows:
                dim_table.insert(txn, row, mode=InsertMode.BULK_INTERNAL)
            database.commit(txn)
        txn = database.begin()
        for row in rows:
            table.insert(txn, row, mode=InsertMode.BULK_INTERNAL)
        database.commit(txn)
        view = subject.factory(database, subject.definition, subject.schema)
        txn = database.begin()
        view.initialize(list(rows), txn)
        database.commit(txn)
        return {
            "database": database,
            "table": table,
            "view": view,
            "session": database.internal_session(),
        }

    def _run_scenario(
        self,
        subject: _Subject,
        context: dict[str, Any],
        op: MicroOp,
        rule: "DeltaRule | None",
        *,
        probe_redelivery: bool,
    ) -> _ScenarioOutcome:
        session = context["session"]
        database: Database = context["database"]
        view = context["view"]
        outcome = _ScenarioOutcome()
        kind = OpKind(op.kind)

        pre_rows = list(context["table"].scan_values())
        delta = OpDelta(
            statement_text=op.sql,
            table=subject.schema.name,
            kind=kind,
            txn_id=1,
            sequence=1,
            captured_at=database.clock.now,
        )
        # Capture as the rule says; without one (probing a source-query
        # plan) capture hybrid, so whichever path apply picks has what it
        # needs.
        wants_image = kind is not OpKind.INSERT and (
            rule is None or rule.needs_before_image
        )
        if wants_image:
            image = self._before_image(subject.schema, pre_rows, delta)
            delta = OpDelta(
                statement_text=op.sql,
                table=subject.schema.name,
                kind=kind,
                txn_id=1,
                sequence=1,
                captured_at=database.clock.now,
                before_image=image,
            )
            outcome.before_image = tuple(image)

        pre_keys = (
            set(view.groups().keys()) if subject.is_aggregate else set()
        )
        session.begin()
        txn = session.current_transaction
        try:
            try:
                session.execute(op.sql)
            except ReproError:
                outcome.skipped = True  # the base itself rejects this op
                return outcome
            try:
                view.apply_operation(delta, txn)
            except WarehouseError as exc:
                self._classify_crash(outcome, str(exc))
            except ReproError as exc:
                outcome.crashed = True
                outcome.error = str(exc)
            if outcome.crashed:
                self._note_group_shape(
                    subject, outcome, pre_keys, post_keys=None
                )
                return outcome
            observed, expected, post_keys = self._compare(subject, context)
            if observed != expected:
                outcome.diverged = True
                outcome.observed = repr(observed)
                outcome.expected = repr(expected)
                self._note_group_shape(subject, outcome, pre_keys, post_keys)
                return outcome
            if probe_redelivery:
                self._probe_redelivery(
                    subject, view, delta, txn, outcome, expected
                )
            return outcome
        finally:
            if session.in_transaction:
                session.rollback()

    def _classify_crash(self, outcome: _ScenarioOutcome, message: str) -> None:
        outcome.crashed = True
        outcome.error = message
        if "needs before images" in message:
            outcome.needs_image_crash = True
        if "querying the sources" in message or "without querying" in message:
            outcome.source_query_crash = True

    def _note_group_shape(
        self,
        subject: _Subject,
        outcome: _ScenarioOutcome,
        pre_keys: set,
        post_keys: set | None,
    ) -> None:
        if not subject.is_aggregate:
            return
        sensitive = subject.group_sensitive_columns
        null_contribution = any(
            row[position] is None
            for row in (outcome.before_image or ())
            for position in sensitive
        )
        emptied = bool(pre_keys) and (
            post_keys is None or bool(pre_keys - post_keys)
        )
        outcome.empty_or_null_group = null_contribution or emptied

    def _probe_redelivery(
        self,
        subject: _Subject,
        view: Any,
        delta: OpDelta,
        txn: Any,
        outcome: _ScenarioOutcome,
        expected: Any,
    ) -> None:
        """Apply the same op again (view only): silent drift is RULE005."""
        try:
            view.apply_operation(delta, txn)
        except ReproError:
            return  # redelivery fails loudly: safe under retries
        redelivered = self._view_state(subject, view)
        if redelivered != expected:
            outcome.redelivery_diverged = True
            outcome.observed = repr(redelivered)
            outcome.expected = repr(expected)

    # ----------------------------------------------------------- comparison
    def _before_image(
        self,
        schema: TableSchema,
        rows: list[tuple[Any, ...]],
        delta: OpDelta,
    ) -> list[tuple[Any, ...]]:
        where = delta.statement.where  # type: ignore[union-attr]
        matches = compile_predicate(where, RowBinding(schema.column_names))
        return [row for row in rows if matches(row, NO_SESSION)]

    def _view_state(self, subject: _Subject, view: Any) -> Any:
        if subject.is_aggregate:
            return {
                key: {
                    label: norm_number(value)
                    for label, value in entry.items()
                }
                for key, entry in view.groups().items()
            }
        rows = list(view.table.scan_values())
        return sorted(rows, key=row_order)

    def _compare(
        self, subject: _Subject, context: dict[str, Any]
    ) -> tuple[Any, Any, set | None]:
        """(view state, the view's SELECT run over the mutated micro-database,
        post-op group keys)."""
        observed = self._view_state(subject, context["view"])
        expected = self._oracle(subject, context["database"])
        if not subject.is_aggregate:
            return observed, expected, None
        return observed, expected, set(expected.keys())

    def _oracle(self, subject: _Subject, database: Database) -> Any:
        """What the view should hold: :func:`~repro.warehouse.views.contents`
        over the tables its SELECT reads, each read with ``scan_values()``
        (the SELECT itself runs on a clock of its own).  An aggregate's
        values are compared at :func:`~repro.warehouse.views.norm_number`'s
        precision; its group count is exact."""
        select = subject.definition.select
        tables = [
            database.table(name)
            for name in (select.table, *(join.table for join in select.joins))
        ]
        expected = contents(
            subject.definition,
            [(table.schema, table.scan_values()) for table in tables],
        )
        if isinstance(expected, list):
            return expected
        return {
            key: {
                label: value if label == "count" else norm_number(value)
                for label, value in entry.items()
            }
            for key, entry in expected.items()
        }
