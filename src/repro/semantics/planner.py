"""Static view-maintenance planner: compile views into per-op delta rules.

DBToaster-style ahead-of-time compilation, scaled to this engine's view
classes: each warehouse view definition (select-project-join views and the
aggregate views of :mod:`repro.warehouse.aggregates`) is compiled **once**
into a :class:`MaintenancePlan` — one :class:`DeltaRule` per DML kind —
and classified as *self-maintainable* (op-delta alone), *self-maintainable
hybrid* (op-delta plus captured before images) or *source-query-needed*
(cannot be maintained without querying the source, violating §2.3 req. 1).

An SPJ plan is the per-kind widening of the one replay judge
(:mod:`repro.core.selfmaint`): each kind is asked with every base column
read, and for UPDATE assigned, so a rule that needs no before image holds
for every statement of its kind.  A plan's diagnostics are the semantic
checker's for the SELECT the view stands for (``view.select``): the names,
the join and the types of a definition are resolved where every SELECT's
are.  The plan decides what capture fetches
(:class:`PlanDrivenCapturePolicy`) and what the verifier certifies;
apply reads no rule — it asks :func:`~repro.core.selfmaint.replay_kind` per
statement shape, and a plan that captured too few images fails loudly there
instead of rewriting wrongly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from ..core.opdelta import OpKind
from ..core.selfmaint import Maintainability, ViewDefinition, _replay
from ..errors import SelfMaintenanceError
from ..plain import Record
from .checker import SchemaCatalog, SemanticChecker
from .diagnostics import Diagnostic, has_errors

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
class DeltaRule(Record):
    """Per-operation-kind delta propagation rule."""

    kind: OpKind
    action: RuleAction
    needs_before_image: bool
    reason: str


@dataclass(frozen=True)
class MaintenancePlan(Record):
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


class ViewMaintenancePlanner:
    """Compiles view definitions into :class:`MaintenancePlan` objects."""

    def __init__(self, catalog: SchemaCatalog) -> None:
        self.catalog = catalog
        self._checker = SemanticChecker(catalog)

    # ---------------------------------------------------------------- planning
    def plan_view(self, view: ViewDefinition) -> MaintenancePlan:
        """Compile one SPJ view."""
        diags = self._checker.check_statement(view.select).diagnostics
        schema = self.catalog.schema(view.base_table)
        # Every column a statement may read (and an UPDATE assign): the
        # definition's own list, else the catalog's.  An unknown table's
        # columns are unknown, so one no view projects stands for them.
        if view.base_columns is not None:
            base_columns = frozenset(view.base_columns)
        else:
            base_columns = frozenset(
                schema.column_names if schema is not None else ("*",)
            )
        rules = tuple(
            self._spj_rule(view, kind, base_columns) for kind in _DML_KINDS
        )
        return MaintenancePlan(
            view=view.name,
            base_table=view.base_table,
            view_kind="spj",
            classification=_classify(rules, diags),
            rules=rules,
            diagnostics=diags,
        )

    def plan_aggregate(self, view: "AggregateViewDefinition") -> MaintenancePlan:
        """Compile one GROUP BY aggregate view."""
        diags = self._checker.check_statement(view.select).diagnostics
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
            diagnostics=diags,
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
    def _spj_rule(
        self, view: ViewDefinition, kind: OpKind, base_columns: frozenset[str]
    ) -> DeltaRule:
        """The per-kind widening of the one replay judge: every statement of
        ``kind`` replays as this answers or more cheaply."""
        assigned = base_columns if kind is OpKind.UPDATE else frozenset()
        level = _replay(view, kind, base_columns, assigned)
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
    rules: tuple[DeltaRule, ...], diags: tuple[Diagnostic, ...]
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
