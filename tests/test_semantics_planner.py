"""The static view-maintenance planner (repro.semantics.planner)."""

import pytest

import repro.engine  # noqa: F401  (resolves the engine<->sql import cycle)
from repro.core import JoinSpec, OpKind, ViewDefinition
from repro.errors import WarehouseError
from repro.semantics import (
    TYPE_MISMATCH,
    UNKNOWN_COLUMN,
    UNKNOWN_TABLE,
    PlanDrivenCapturePolicy,
    RuleAction,
    SchemaCatalog,
    ViewClass,
    ViewMaintenancePlanner,
)
from repro.sql.parser import parse
from repro.warehouse import (
    AggregateSpec,
    AggregateViewDefinition,
    Warehouse,
)
from repro.warehouse.opdelta_integrator import OpDeltaIntegrator
from repro.workloads import parts_schema
from repro.workloads.records import suppliers_schema

CATALOG = SchemaCatalog([parts_schema(), suppliers_schema()])
PLANNER = ViewMaintenancePlanner(CATALOG)

BASE = parts_schema().column_names

FULL_VIEW = ViewDefinition(
    "all_parts", "parts", columns=BASE, predicate=None, key_column="part_id"
)
ACTIVE_VIEW = ViewDefinition(
    "active_parts",
    "parts",
    columns=("part_id", "part_no", "status", "quantity", "price"),
    predicate="status = 'active'",
    key_column="part_id",
)
KEYLESS_VIEW = ViewDefinition(
    "status_only", "parts", columns=("status",), predicate=None, key_column=None
)
REMOTE_JOIN_VIEW = ViewDefinition(
    "parts_with_names",
    "parts",
    columns=("part_id", "status"),
    predicate=None,
    key_column="part_id",
    join=JoinSpec(
        "suppliers",
        "supplier_id",
        "supplier_id",
        columns=("supplier_name",),
        available_at_warehouse=False,
    ),
)
AGG_VIEW = AggregateViewDefinition(
    "qty_by_supplier",
    "parts",
    group_by=("supplier_id",),
    aggregates=(AggregateSpec("COUNT"), AggregateSpec("SUM", "quantity")),
)


class TestSpjPlans:
    def test_full_projection_is_self_maintainable(self):
        plan = PLANNER.plan_view(FULL_VIEW)
        assert plan.valid
        assert plan.classification is ViewClass.SELF_MAINTAINABLE
        assert plan.self_maintainable
        assert not any(rule.needs_before_image for rule in plan.rules)
        assert plan.rule_for(OpKind.INSERT).action is RuleAction.PROJECT_INSERT
        assert plan.rule_for(OpKind.UPDATE).action is RuleAction.REWRITE_ON_VIEW
        assert plan.rule_for(OpKind.DELETE).action is RuleAction.REWRITE_ON_VIEW

    def test_selective_projection_is_hybrid(self):
        plan = PLANNER.plan_view(ACTIVE_VIEW)
        assert plan.classification is ViewClass.SELF_MAINTAINABLE_HYBRID
        assert plan.self_maintainable  # hybrid still avoids source queries
        assert plan.rule_for(OpKind.UPDATE).action is RuleAction.DYNAMIC
        assert plan.rule_for(OpKind.UPDATE).needs_before_image
        assert plan.rule_for(OpKind.DELETE).needs_before_image
        assert not plan.rule_for(OpKind.INSERT).needs_before_image

    def test_keyless_view_is_hybrid(self):
        # Without a projected key, deletes cannot rewrite onto the view.
        plan = PLANNER.plan_view(KEYLESS_VIEW)
        assert plan.classification is ViewClass.SELF_MAINTAINABLE_HYBRID
        assert plan.rule_for(OpKind.DELETE).needs_before_image

    def test_remote_join_needs_source_queries(self):
        plan = PLANNER.plan_view(REMOTE_JOIN_VIEW)
        assert plan.classification is ViewClass.SOURCE_QUERY_NEEDED
        assert not plan.self_maintainable
        assert any(
            rule.action is RuleAction.SOURCE_QUERY for rule in plan.rules
        )

    def test_rules_carry_reasons(self):
        plan = PLANNER.plan_view(ACTIVE_VIEW)
        for rule in plan.rules:
            assert rule.reason

    def test_base_columns_filled_from_catalog(self):
        # FULL_VIEW is declared without base_columns; only the catalog can
        # prove it projects the full base row.  Without them the widening
        # would be conservative — the planner must consult the schema.
        assert FULL_VIEW.base_columns is None
        plan = PLANNER.plan_view(FULL_VIEW)
        assert plan.classification is ViewClass.SELF_MAINTAINABLE


class TestPlanDiagnostics:
    def test_unknown_base_table(self):
        plan = PLANNER.plan_view(
            ViewDefinition("v", "partz", columns=("status",), predicate=None)
        )
        assert not plan.valid
        assert not plan.self_maintainable
        assert plan.diagnostics[0].code == UNKNOWN_TABLE

    def test_unknown_projected_column(self):
        plan = PLANNER.plan_view(
            ViewDefinition("v", "parts", columns=("no_such",), predicate=None,
                           key_column="part_id")
        )
        assert not plan.valid
        assert any(d.code == UNKNOWN_COLUMN for d in plan.diagnostics)

    def test_type_error_in_view_predicate(self):
        plan = PLANNER.plan_view(
            ViewDefinition(
                "v", "parts", columns=("part_id",), predicate="status > 5",
                key_column="part_id",
            )
        )
        assert not plan.valid
        assert any(d.code == TYPE_MISMATCH for d in plan.diagnostics)


class TestAggregatePlans:
    def test_aggregate_rules_fixed(self):
        plan = PLANNER.plan_aggregate(AGG_VIEW)
        assert plan.valid
        assert plan.view_kind == "aggregate"
        assert plan.classification is ViewClass.SELF_MAINTAINABLE_HYBRID
        assert plan.rule_for(OpKind.INSERT).action is RuleAction.AGGREGATE_ADD
        assert plan.rule_for(OpKind.UPDATE).action is RuleAction.AGGREGATE_MOVE
        assert (
            plan.rule_for(OpKind.DELETE).action is RuleAction.AGGREGATE_RETRACT
        )
        assert plan.requires_before_image(OpKind.DELETE)
        assert not plan.requires_before_image(OpKind.INSERT)

    def test_unknown_group_by_column(self):
        plan = PLANNER.plan_aggregate(
            AggregateViewDefinition(
                "v", "parts", group_by=("no_such",),
                aggregates=(AggregateSpec("COUNT"),),
            )
        )
        assert not plan.valid
        assert any(d.code == UNKNOWN_COLUMN for d in plan.diagnostics)

    def test_non_numeric_sum_argument(self):
        plan = PLANNER.plan_aggregate(
            AggregateViewDefinition(
                "v", "parts", group_by=("supplier_id",),
                aggregates=(AggregateSpec("SUM", "status"),),
            )
        )
        assert not plan.valid
        assert any(d.code == TYPE_MISMATCH for d in plan.diagnostics)


class TestCatalogAndPolicy:
    def test_plan_catalog_covers_both_kinds(self):
        plans = PLANNER.plan_catalog([ACTIVE_VIEW], [AGG_VIEW])
        assert set(plans) == {"active_parts", "qty_by_supplier"}
        assert plans["active_parts"].view_kind == "spj"
        assert plans["qty_by_supplier"].view_kind == "aggregate"

    def test_policy_from_plans(self):
        plans = PLANNER.plan_catalog([ACTIVE_VIEW], [AGG_VIEW])
        policy = PlanDrivenCapturePolicy(plans)
        assert policy.requires_before_image("parts", OpKind.UPDATE)
        assert policy.requires_before_image("parts", OpKind.DELETE)
        assert not policy.requires_before_image("parts", OpKind.INSERT)
        assert not policy.requires_before_image("other", OpKind.UPDATE)

    def test_policy_with_full_projection_needs_no_images(self):
        plans = PLANNER.plan_catalog([FULL_VIEW], [])
        policy = PlanDrivenCapturePolicy(plans)
        assert not policy.requires_before_image("parts", OpKind.UPDATE)

    def test_plan_to_dict_is_json_shaped(self):
        plan = PLANNER.plan_view(ACTIVE_VIEW)
        payload = plan.to_dict()
        assert payload["classification"] == "self-maintainable-hybrid"
        assert len(payload["rules"]) == 3
        assert all("action" in rule for rule in payload["rules"])


class TestIntegratorValidation:
    def test_integrator_rejects_source_query_plan(self):
        plan = PLANNER.plan_view(REMOTE_JOIN_VIEW)
        warehouse = Warehouse("plan-reject")
        warehouse.create_mirror(parts_schema())
        view = warehouse.define_view(ACTIVE_VIEW, parts_schema())
        with pytest.raises(WarehouseError, match="source-query"):
            OpDeltaIntegrator(
                warehouse.database.internal_session(),
                views=[view],
                plans={view.definition.name: plan},
            )

    def test_integrator_rejects_invalid_plan(self):
        bad = PLANNER.plan_view(
            ViewDefinition("active_parts", "partz", columns=("status",),
                           predicate=None)
        )
        warehouse = Warehouse("plan-invalid")
        warehouse.create_mirror(parts_schema())
        view = warehouse.define_view(ACTIVE_VIEW, parts_schema())
        with pytest.raises(WarehouseError, match="invalid"):
            OpDeltaIntegrator(
                warehouse.database.internal_session(),
                views=[view],
                plans={"active_parts": bad},
            )

    def test_unplanned_views_still_accepted(self):
        warehouse = Warehouse("plan-none")
        warehouse.create_mirror(parts_schema())
        view = warehouse.define_view(ACTIVE_VIEW, parts_schema())
        OpDeltaIntegrator(
            warehouse.database.internal_session(), views=[view], plans={}
        )


def _joined(**changes):
    """A parts ⋈ suppliers view with one part of its definition changed."""
    join = {
        "table": "suppliers",
        "left_column": "supplier_id",
        "right_column": "supplier_id",
        "columns": ("supplier_name",),
    }
    join.update(changes.pop("join", {}))
    spec = {
        "name": "v",
        "base_table": "parts",
        "columns": ("part_id", "status"),
        "key_column": "part_id",
        "join": JoinSpec(**join),
    }
    spec.update(changes)
    return ViewDefinition(**spec)


class TestBrokenViewCodes:
    """Each broken part of a definition draws the one code it always drew."""

    @pytest.mark.parametrize(
        "view, code",
        [
            (_joined(join={"table": "supplierz"}), UNKNOWN_TABLE),
            (_joined(join={"columns": ("no_such",)}), UNKNOWN_COLUMN),
            (_joined(join={"left_column": "no_such"}), UNKNOWN_COLUMN),
            (_joined(join={"right_column": "no_such"}), UNKNOWN_COLUMN),
            (_joined(key_column="no_such"), UNKNOWN_COLUMN),
            (_joined(predicate="supplier_name = 'acme'"), UNKNOWN_COLUMN),
        ],
        ids=[
            "unknown-dimension-table",
            "unknown-dimension-column",
            "unknown-join-left-column",
            "unknown-join-right-column",
            "unknown-key-column",
            "predicate-names-dimension-column",
        ],
    )
    def test_broken_view_code(self, view, code):
        plan = PLANNER.plan_view(view)
        assert not plan.valid
        assert {d.code for d in plan.diagnostics} == {code}

    def test_a_column_both_tables_have_is_not_ambiguous(self):
        # parts and suppliers both have supplier_id; the view reads the
        # base table's, in its items and in its predicate.
        plan = PLANNER.plan_view(_joined(
            columns=("part_id", "supplier_id"), predicate="supplier_id > 0"
        ))
        assert plan.diagnostics == ()


def _program_views():
    """Every view definition a program of this repository builds, with the
    schemas it is planned against."""
    import importlib.util
    from pathlib import Path

    from repro.bench import check, verify
    from repro.bench.experiments import (
        aggregate_views,
        analysis,
        columnar,
        compaction,
        semantics,
    )
    from repro.obs.introspect import meta

    example_path = (
        Path(__file__).resolve().parents[1] / "examples" / "online_warehouse.py"
    )
    spec = importlib.util.spec_from_file_location("online_warehouse", example_path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)

    parts = [parts_schema(), suppliers_schema()]
    return [
        *((view, check.seed_catalog()) for view in check.SEED_VIEWS),
        *((view, check.seed_catalog()) for view in check.SEED_AGGREGATE_VIEWS),
        (verify.MIRROR_VIEW, SchemaCatalog(parts)),
        (verify.JOIN_VIEW, SchemaCatalog(parts)),
        (semantics.SPJ_VIEW, SchemaCatalog(parts)),
        (semantics.AGG_VIEW, SchemaCatalog(parts)),
        (aggregate_views.DEFINITION, SchemaCatalog(parts)),
        *(
            (view, SchemaCatalog(parts))
            for module in (analysis, columnar, compaction)
            for view in module.build_analyzer().views
        ),
        *((view, SchemaCatalog(meta._SCHEMAS)) for view in meta._view_definitions()),
        (example.HOT_PARTS, SchemaCatalog(parts)),
    ]


class TestProgramViewsPlanClean:
    def test_the_join_view_plans_with_no_diagnostics(self):
        from repro.bench.verify import JOIN_VIEW

        plan = PLANNER.plan_view(JOIN_VIEW)
        assert plan.diagnostics == ()

    def test_every_program_view_plans_with_no_diagnostics(self):
        planned = 0
        for view, catalog in _program_views():
            planner = ViewMaintenancePlanner(catalog)
            if isinstance(view, AggregateViewDefinition):
                plan = planner.plan_aggregate(view)
            else:
                plan = planner.plan_view(view)
            assert plan.diagnostics == (), view.name
            planned += 1
        assert planned == 14


def _interest_by_hand(view):
    """The base columns an UPDATE must assign to change ``view``, as
    relevance once worked them out from the definition's parts."""
    from repro.sql.expressions import referenced_columns

    if isinstance(view, AggregateViewDefinition):
        interest = set(view.group_by)
        interest.update(s.argument for s in view.aggregates if s.argument)
    else:
        interest = set(view.columns)
        if view.key_column is not None:
            interest.add(view.key_column)
        if view.join is not None:
            interest.add(view.join.left_column)
    if view.predicate_ast() is not None:
        interest |= referenced_columns(view.predicate_ast())
    return interest


class TestTheSelectAViewStandsFor:
    def test_an_spj_view_with_a_join(self):
        view = _joined(predicate="quantity > 5")
        assert view.select.to_sql() == (
            "SELECT parts.part_id, parts.status, parts.supplier_id, "
            "suppliers.supplier_name FROM parts "
            "LEFT JOIN suppliers ON parts.supplier_id = suppliers.supplier_id "
            "WHERE (parts.quantity > 5)"
        )
        assert view.select is view.select
        # The text parses back to the statement it renders.
        assert parse(view.select.to_sql()).to_sql() == view.select.to_sql()
        assert parse(view.select.to_sql()).joins[0].outer

    def test_the_key_comes_before_the_join_column(self):
        view = _joined(columns=("status",))
        assert [item.expr.to_sql() for item in view.select.items] == [
            "parts.status", "parts.part_id", "parts.supplier_id",
            "suppliers.supplier_name",
        ]

    def test_an_aggregate_view(self):
        view = AggregateViewDefinition(
            "v", "parts", group_by=("supplier_id",),
            aggregates=(AggregateSpec("COUNT"), AggregateSpec("AVG", "price")),
            predicate="status = 'active'",
        )
        assert view.select.to_sql() == (
            "SELECT parts.supplier_id, COUNT(*), COUNT(*), AVG(parts.price) "
            "FROM parts WHERE (parts.status = 'active') "
            "GROUP BY parts.supplier_id"
        )

    def test_its_base_columns_are_what_relevance_worked_out_by_hand(self):
        from repro.sql import ast_nodes as ast

        views = [view for view, _catalog in _program_views()] + [
            FULL_VIEW, ACTIVE_VIEW, KEYLESS_VIEW, REMOTE_JOIN_VIEW, AGG_VIEW,
            _joined(columns=("status",), predicate="quantity > 5"),
            _joined(join={"columns": ()}),
        ]
        for view in views:
            base = {
                node.name
                for expr in ast.expressions(view.select)
                for node in ast.walk(expr)
                if isinstance(node, ast.ColumnRef) and node.table == view.base_table
            }
            assert base == _interest_by_hand(view), view.name
