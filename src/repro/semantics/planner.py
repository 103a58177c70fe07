"""Static view-maintenance planner: compile views into per-op delta rules.

DBToaster-style ahead-of-time compilation, scaled to this engine's view
classes: each warehouse view definition (select-project-join views and the
aggregate views of :mod:`repro.warehouse.aggregates`) is compiled **once**
into a :class:`MaintenancePlan` — one :class:`DeltaRule` per DML kind —
and classified as *self-maintainable* (op-delta alone), *self-maintainable
hybrid* (op-delta plus captured before images) or *source-query-needed*
(cannot be maintained without querying the source, violating §2.3 req. 1).

This subsumes :mod:`repro.core.selfmaint`: the planner calls its static
classification per operation kind, then goes further — it validates the
view definition against the schema catalog with the semantic checker
(predicate type errors become plan diagnostics), decides ahead of time
which apply strategy each operation kind uses, and drives both the hybrid
capture policy (:class:`PlanDrivenCapturePolicy`) and the integrators'
apply fast path, replacing recompute-on-apply with rule execution.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..core.opdelta import OpKind
from ..core.selfmaint import Maintainability, ViewDefinition, classify_static
from ..engine.schema import TableSchema
from ..errors import SelfMaintenanceError
from ..sql.parser import parse_expression
from . import diagnostics as diag
from .checker import SchemaCatalog, SemanticChecker
from .diagnostics import Diagnostic, Severity, has_errors
from .sqltypes import from_datatype

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..warehouse.aggregates import AggregateViewDefinition

#: DML kinds a plan covers, in rule order.
_DML_KINDS = (OpKind.INSERT, OpKind.UPDATE, OpKind.DELETE)


class ViewClass(enum.Enum):
    """How much captured information a view needs, decided statically."""

    #: Every DML kind applies from the operation alone.
    SELF_MAINTAINABLE = "self-maintainable"
    #: Some kinds need captured before images — still no source queries.
    SELF_MAINTAINABLE_HYBRID = "self-maintainable-hybrid"
    #: Maintenance would have to query back to the source (§2.3 req. 1).
    SOURCE_QUERY_NEEDED = "source-query-needed"


class RuleAction(enum.Enum):
    """The apply strategy a rule prescribes for one operation kind."""

    #: Project the INSERT's rows through the view's selection/projection.
    PROJECT_INSERT = "project-insert"
    #: Rewrite the statement onto the view's storage (predicate projected).
    REWRITE_ON_VIEW = "rewrite-on-view"
    #: Statically undecidable: choose rewrite vs image path per statement.
    DYNAMIC = "dynamic"
    #: Add the rows' contributions to their groups (aggregate INSERT).
    AGGREGATE_ADD = "aggregate-add"
    #: Retract contributions; a group whose count reaches zero disappears.
    AGGREGATE_RETRACT = "aggregate-retract"
    #: Move contributions between groups (aggregate UPDATE, before+after).
    AGGREGATE_MOVE = "aggregate-move"
    #: No captured information suffices; the source must be re-queried.
    SOURCE_QUERY = "source-query"


@dataclass(frozen=True)
class DeltaRule:
    """Per-operation-kind delta propagation rule."""

    kind: OpKind
    action: RuleAction
    needs_before_image: bool
    reason: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind.value,
            "action": self.action.value,
            "needs_before_image": self.needs_before_image,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class MaintenancePlan:
    """The compiled maintenance strategy for one view."""

    view: str
    base_table: str
    view_kind: str  # "spj" or "aggregate"
    classification: ViewClass
    rules: tuple[DeltaRule, ...]
    diagnostics: tuple[Diagnostic, ...] = field(default=())

    @property
    def valid(self) -> bool:
        """Whether the view definition itself checked out semantically."""
        return not has_errors(self.diagnostics)

    @property
    def self_maintainable(self) -> bool:
        return self.valid and self.classification is not ViewClass.SOURCE_QUERY_NEEDED

    def rule_for(self, kind: OpKind) -> DeltaRule:
        for rule in self.rules:
            if rule.kind is kind:
                return rule
        raise KeyError(f"plan for {self.view!r} has no rule for {kind.value}")

    def requires_before_image(self, kind: OpKind) -> bool:
        return self.rule_for(kind).needs_before_image

    def to_dict(self) -> dict[str, Any]:
        return {
            "view": self.view,
            "base_table": self.base_table,
            "view_kind": self.view_kind,
            "classification": self.classification.value,
            "rules": [rule.to_dict() for rule in self.rules],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def fingerprint(self) -> str:
        """Stable content hash of the compiled plan.

        Two plans with identical rules, classification and diagnostics
        fingerprint identically across processes — the key the batched
        integrator's persistent rule memo and the columnar kernel cache
        are partitioned by, so repeated windows over an unchanged plan
        set reuse resolved rules and compiled closures.
        """
        import hashlib
        import json

        payload = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def plan_set_fingerprint(
    plans: Mapping[str, "MaintenancePlan"],
    certificates: Mapping[str, str] | None = None,
) -> str:
    """Combined fingerprint of a plan catalog plus verifier certificates.

    This is the plan-certificate hash the batched integrator keys its
    per-window memo on: it changes whenever any plan's rules *or* its
    verification certificate change, and nothing else.
    """
    import hashlib

    certificates = certificates or {}
    parts = [
        f"{name}:{plans[name].fingerprint()}:{certificates.get(name, '')}"
        for name in sorted(plans)
    ]
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]


class ViewMaintenancePlanner:
    """Compiles view definitions into :class:`MaintenancePlan` objects."""

    def __init__(self, catalog: SchemaCatalog) -> None:
        self.catalog = catalog
        self._checker = SemanticChecker(catalog)

    # ---------------------------------------------------------------- planning
    def plan_view(self, view: ViewDefinition) -> MaintenancePlan:
        """Compile one SPJ view."""
        diags: list[Diagnostic] = []
        schema = self.catalog.schema(view.base_table)
        if schema is None:
            diags.append(
                Diagnostic(
                    diag.UNKNOWN_TABLE,
                    Severity.ERROR,
                    f"view {view.name!r} is over unknown table "
                    f"{view.base_table!r}",
                )
            )
        else:
            for column in view.columns:
                if not schema.has_column(column):
                    diags.append(
                        Diagnostic(
                            diag.UNKNOWN_COLUMN,
                            Severity.ERROR,
                            f"view {view.name!r} projects unknown column "
                            f"{view.base_table}.{column}",
                        )
                    )
            if view.key_column is not None and not schema.has_column(view.key_column):
                diags.append(
                    Diagnostic(
                        diag.UNKNOWN_COLUMN,
                        Severity.ERROR,
                        f"view {view.name!r} keys on unknown column "
                        f"{view.base_table}.{view.key_column}",
                    )
                )
            if view.predicate:
                _folded, predicate_diags = self._checker.check_predicate(
                    parse_expression(view.predicate), schema
                )
                diags.extend(predicate_diags)
            diags.extend(self._check_join(view, schema))
            # The planner knows the base schema; give the static classifier
            # the full column list so full-width mirrors classify op-only.
            if view.base_columns is None:
                view = dataclasses.replace(
                    view, base_columns=schema.column_names
                )

        rules = tuple(self._spj_rule(view, kind) for kind in _DML_KINDS)
        return MaintenancePlan(
            view=view.name,
            base_table=view.base_table,
            view_kind="spj",
            classification=_classify(rules, diags),
            rules=rules,
            diagnostics=tuple(diags),
        )

    def plan_aggregate(self, view: "AggregateViewDefinition") -> MaintenancePlan:
        """Compile one GROUP BY aggregate view."""
        diags: list[Diagnostic] = []
        schema = self.catalog.schema(view.base_table)
        if schema is None:
            diags.append(
                Diagnostic(
                    diag.UNKNOWN_TABLE,
                    Severity.ERROR,
                    f"aggregate view {view.name!r} is over unknown table "
                    f"{view.base_table!r}",
                )
            )
        else:
            for column in view.group_by:
                if not schema.has_column(column):
                    diags.append(
                        Diagnostic(
                            diag.UNKNOWN_COLUMN,
                            Severity.ERROR,
                            f"aggregate view {view.name!r} groups by unknown "
                            f"column {view.base_table}.{column}",
                        )
                    )
            for spec in view.aggregates:
                if spec.argument is None:
                    continue
                if not schema.has_column(spec.argument):
                    diags.append(
                        Diagnostic(
                            diag.UNKNOWN_COLUMN,
                            Severity.ERROR,
                            f"{spec.function}({spec.argument}): unknown column "
                            f"{view.base_table}.{spec.argument}",
                        )
                    )
                elif spec.function in ("SUM", "AVG"):
                    argument_type = from_datatype(
                        schema.column(spec.argument).datatype
                    )
                    if not argument_type.is_numeric:
                        diags.append(
                            Diagnostic(
                                diag.TYPE_MISMATCH,
                                Severity.ERROR,
                                f"{spec.function}({spec.argument}) needs a "
                                f"numeric column, got {argument_type.value}",
                            )
                        )
            if view.predicate:
                _folded, predicate_diags = self._checker.check_predicate(
                    parse_expression(view.predicate), schema
                )
                diags.extend(predicate_diags)

        # COUNT/SUM/AVG are all distributive over insert/delete given the
        # (sum, count) decomposition, so aggregate views always plan to the
        # same rule set: inserts apply op-only (the statement carries the
        # rows); updates and deletes need the captured before image to know
        # which group each vanished contribution came from.
        rules = (
            DeltaRule(
                OpKind.INSERT,
                RuleAction.AGGREGATE_ADD,
                needs_before_image=False,
                reason="INSERT carries the new rows; add their contributions",
            ),
            DeltaRule(
                OpKind.UPDATE,
                RuleAction.AGGREGATE_MOVE,
                needs_before_image=True,
                reason=(
                    "before image identifies each row's old group; the "
                    "operation derives the new contribution"
                ),
            ),
            DeltaRule(
                OpKind.DELETE,
                RuleAction.AGGREGATE_RETRACT,
                needs_before_image=True,
                reason=(
                    "before image carries the vanished contributions; a "
                    "group whose count reaches zero is retracted"
                ),
            ),
        )
        return MaintenancePlan(
            view=view.name,
            base_table=view.base_table,
            view_kind="aggregate",
            classification=_classify(rules, diags),
            rules=rules,
            diagnostics=tuple(diags),
        )

    def plan_catalog(
        self,
        views: Iterable[ViewDefinition] = (),
        aggregate_views: Iterable["AggregateViewDefinition"] = (),
    ) -> dict[str, MaintenancePlan]:
        """Compile every view; returns ``{view name: plan}``."""
        plans: dict[str, MaintenancePlan] = {}
        for view in views:
            plans[view.name] = self.plan_view(view)
        for aggregate in aggregate_views:
            plans[aggregate.name] = self.plan_aggregate(aggregate)
        return plans

    # --------------------------------------------------------------- internals
    def _check_join(
        self, view: ViewDefinition, base_schema: TableSchema
    ) -> list[Diagnostic]:
        if view.join is None:
            return []
        diags: list[Diagnostic] = []
        if not base_schema.has_column(view.join.left_column):
            diags.append(
                Diagnostic(
                    diag.UNKNOWN_COLUMN,
                    Severity.ERROR,
                    f"join of view {view.name!r} uses unknown column "
                    f"{view.base_table}.{view.join.left_column}",
                )
            )
        join_schema = self.catalog.schema(view.join.table)
        if join_schema is None:
            diags.append(
                Diagnostic(
                    diag.UNKNOWN_TABLE,
                    Severity.ERROR,
                    f"view {view.name!r} joins unknown table "
                    f"{view.join.table!r}",
                )
            )
            return diags
        for column in (view.join.right_column, *view.join.columns):
            if not join_schema.has_column(column):
                diags.append(
                    Diagnostic(
                        diag.UNKNOWN_COLUMN,
                        Severity.ERROR,
                        f"join of view {view.name!r} uses unknown column "
                        f"{view.join.table}.{column}",
                    )
                )
        return diags

    def _spj_rule(self, view: ViewDefinition, kind: OpKind) -> DeltaRule:
        level = classify_static(view, kind)
        if level is Maintainability.NOT_SELF_MAINTAINABLE:
            return DeltaRule(
                kind,
                RuleAction.SOURCE_QUERY,
                needs_before_image=False,
                reason=(
                    f"joined table {view.join.table!r} is not held at the "
                    "warehouse; maintenance would query the source"
                    if view.join is not None
                    else "not statically self-maintainable"
                ),
            )
        if kind is OpKind.INSERT:
            return DeltaRule(
                kind,
                RuleAction.PROJECT_INSERT,
                needs_before_image=False,
                reason="INSERT carries the rows; select+project them",
            )
        if level is Maintainability.OP_ONLY:
            return DeltaRule(
                kind,
                RuleAction.REWRITE_ON_VIEW,
                needs_before_image=False,
                reason=(
                    "view keys and projects the full base row, so every "
                    f"{kind.value} predicate rewrites onto the view"
                ),
            )
        return DeltaRule(
            kind,
            RuleAction.DYNAMIC,
            needs_before_image=True,
            reason=(
                f"a {kind.value} may touch non-projected columns or move "
                "rows across the view predicate; capture before images and "
                "choose rewrite vs image path per statement"
            ),
        )


def _classify(
    rules: tuple[DeltaRule, ...], diags: list[Diagnostic]
) -> ViewClass:
    if has_errors(diags) or any(
        rule.action is RuleAction.SOURCE_QUERY for rule in rules
    ):
        return ViewClass.SOURCE_QUERY_NEEDED
    if any(rule.needs_before_image for rule in rules):
        return ViewClass.SELF_MAINTAINABLE_HYBRID
    return ViewClass.SELF_MAINTAINABLE


class PlanDrivenCapturePolicy:
    """The hybrid capture policy: driven by compiled plans.

    Before images are fetched for exactly the (table, kind) pairs where
    some view's compiled rule needs them, aggregate views included.  A view
    no capture can maintain — one whose plan needs a source query — is
    refused here, before anything is captured for it.
    """

    def __init__(self, plans: Iterable[MaintenancePlan] | Mapping[str, MaintenancePlan]) -> None:
        if isinstance(plans, Mapping):
            plans = plans.values()
        self.plans: tuple[MaintenancePlan, ...] = tuple(plans)
        for plan in self.plans:
            if plan.classification is ViewClass.SOURCE_QUERY_NEEDED:
                raise SelfMaintenanceError(
                    f"view {plan.view!r} over {plan.base_table!r} is not "
                    "self-maintainable even with before images (its plan "
                    "needs a source query)"
                )

    def requires_before_image(self, table: str, kind: OpKind) -> bool:
        return any(
            plan.base_table == table and plan.requires_before_image(kind)
            for plan in self.plans
        )
