"""Tests for self-maintainability analysis and the hybrid policies."""

import pytest

from repro.core import (
    AlwaysHybridPolicy,
    JoinSpec,
    Maintainability,
    OpKind,
    ViewDefinition,
    classify_operation,
    classify_static,
)
from repro.core.opdelta import OpDelta
from repro.engine.schema import Column, TableSchema
from repro.engine.types import FLOAT, INTEGER, char
from repro.errors import SelfMaintenanceError
from repro.semantics import (
    PlanDrivenCapturePolicy,
    SchemaCatalog,
    ViewMaintenancePlanner,
)

BASE_COLUMNS = ("part_id", "part_ref", "status", "quantity", "price")
CATALOG = SchemaCatalog([
    TableSchema("parts", [
        Column("part_id", INTEGER, nullable=False), Column("part_ref", INTEGER),
        Column("status", char(10)), Column("quantity", INTEGER),
        Column("price", FLOAT),
    ]),
    TableSchema("suppliers", [
        Column("supplier_id", INTEGER, nullable=False),
        Column("supplier_name", char(24)),
    ]),
])


def view(columns=BASE_COLUMNS, predicate=None, join=None, base=BASE_COLUMNS, name="v"):
    return ViewDefinition(
        name, "parts", columns=tuple(columns), predicate=predicate,
        key_column="part_id", join=join, base_columns=tuple(base),
    )


def plan_policy(views):
    """The hybrid policy programs run: the views' compiled plans."""
    return PlanDrivenCapturePolicy(ViewMaintenancePlanner(CATALOG).plan_catalog(views))


def op(sql: str) -> OpDelta:
    from repro.core.opdelta import classify_statement
    from repro.sql.parser import parse

    statement = parse(sql)
    kind, table = classify_statement(statement)
    return OpDelta(sql, table, kind, 1, 1, 0.0)


class TestPerStatementAnalysis:
    def test_insert_always_op_only(self):
        v = view(columns=("part_id", "status"), predicate="quantity > 5")
        result = classify_operation(v, op("INSERT INTO parts VALUES (1)"))
        assert result is Maintainability.OP_ONLY

    def test_delete_with_projected_predicate_op_only(self):
        v = view(columns=("part_id", "status"))
        result = classify_operation(v, op("DELETE FROM parts WHERE status = 'x'"))
        assert result is Maintainability.OP_ONLY

    def test_delete_with_unprojected_predicate_needs_before(self):
        v = view(columns=("part_id", "status"))
        result = classify_operation(v, op("DELETE FROM parts WHERE quantity > 5"))
        assert result is Maintainability.NEEDS_BEFORE_IMAGE

    def test_delete_without_key_needs_before(self):
        v = view(columns=("status",))
        result = classify_operation(v, op("DELETE FROM parts WHERE status = 'x'"))
        assert result is Maintainability.NEEDS_BEFORE_IMAGE

    def test_update_fully_visible_op_only(self):
        v = view(columns=("part_id", "status", "price"))
        result = classify_operation(
            v, op("UPDATE parts SET price = price * 2 WHERE status = 'x'")
        )
        assert result is Maintainability.OP_ONLY

    def test_update_touching_view_predicate_needs_before(self):
        v = view(predicate="quantity > 5")
        result = classify_operation(
            v, op("UPDATE parts SET quantity = 0 WHERE part_id = 1")
        )
        assert result is Maintainability.NEEDS_BEFORE_IMAGE

    def test_update_reading_unprojected_column_needs_before(self):
        v = view(columns=("part_id", "status"))
        result = classify_operation(
            v, op("UPDATE parts SET status = 'x' WHERE quantity > 5")
        )
        assert result is Maintainability.NEEDS_BEFORE_IMAGE

    def test_update_assigning_join_key_needs_before(self):
        spec = JoinSpec(
            "suppliers", "part_ref", "supplier_id", columns=("supplier_name",)
        )
        v = view(join=spec)
        result = classify_operation(
            v, op("UPDATE parts SET part_ref = 1 WHERE part_id = 1")
        )
        assert result is Maintainability.NEEDS_BEFORE_IMAGE

    def test_update_assigning_columnless_join_key_op_only(self):
        # A join that projects no dimension attributes materialises
        # nothing that can go stale; reassigning its key is an ordinary
        # visible update (pinned by the delta-rule verifier: the old
        # conservative answer forced before images nothing consumed).
        spec = JoinSpec("suppliers", "part_ref", "supplier_id")
        v = view(join=spec)
        result = classify_operation(
            v, op("UPDATE parts SET part_ref = 1 WHERE part_id = 1")
        )
        assert result is Maintainability.OP_ONLY

    def test_unavailable_join_not_maintainable(self):
        spec = JoinSpec(
            "suppliers",
            "part_ref",
            "supplier_id",
            columns=("supplier_name",),
            available_at_warehouse=False,
        )
        v = view(join=spec)
        result = classify_operation(v, op("DELETE FROM parts WHERE part_id = 1"))
        assert result is Maintainability.NOT_SELF_MAINTAINABLE

    def test_unavailable_columnless_join_still_maintainable(self):
        # No projected dimension columns means maintenance never consults
        # the joined table, so its absence at the warehouse is irrelevant.
        spec = JoinSpec(
            "suppliers", "part_ref", "supplier_id", available_at_warehouse=False
        )
        v = view(join=spec)
        result = classify_operation(v, op("DELETE FROM parts WHERE part_id = 1"))
        assert result is Maintainability.OP_ONLY


class TestStaticAnalysis:
    def test_full_mirror_is_op_only(self):
        v = view()
        assert classify_static(v, OpKind.DELETE) is Maintainability.OP_ONLY
        assert classify_static(v, OpKind.UPDATE) is Maintainability.OP_ONLY

    def test_projection_forces_before_images(self):
        v = view(columns=("part_id", "status"))
        assert classify_static(v, OpKind.DELETE) is Maintainability.NEEDS_BEFORE_IMAGE

    def test_selection_forces_before_images_for_updates(self):
        v = view(predicate="quantity > 5")
        assert classify_static(v, OpKind.UPDATE) is Maintainability.NEEDS_BEFORE_IMAGE

    def test_inserts_never_need_before(self):
        v = view(columns=("part_id",), predicate="quantity > 5")
        assert classify_static(v, OpKind.INSERT) is Maintainability.OP_ONLY

    def test_combined_requirement_takes_strongest(self):
        policy = plan_policy([view(), view(columns=("part_id", "status"), name="w")])
        assert policy.requires_before_image("parts", OpKind.DELETE)

    def test_combined_requirement_ignores_other_tables(self):
        policy = plan_policy([view(columns=("part_id", "status"))])
        assert not policy.requires_before_image("suppliers", OpKind.DELETE)


class TestHybridPolicies:
    def test_view_aware_policy(self):
        policy = plan_policy([view(predicate="quantity > 5")])
        assert policy.requires_before_image("parts", OpKind.UPDATE)
        assert not policy.requires_before_image("parts", OpKind.INSERT)
        assert not policy.requires_before_image("suppliers", OpKind.UPDATE)

    def test_unmaintainable_view_raises(self):
        spec = JoinSpec(
            "suppliers",
            "part_ref",
            "supplier_id",
            columns=("supplier_name",),
            available_at_warehouse=False,
        )
        with pytest.raises(SelfMaintenanceError, match="source query"):
            plan_policy([view(join=spec)])

    def test_always_hybrid(self):
        policy = AlwaysHybridPolicy()
        assert policy.requires_before_image("t", OpKind.UPDATE)
        assert policy.requires_before_image("t", OpKind.DELETE)
        assert not policy.requires_before_image("t", OpKind.INSERT)


class TestViewDefinitionValidation:
    def test_empty_projection_rejected(self):
        with pytest.raises(SelfMaintenanceError):
            ViewDefinition("v", "parts", columns=())

    def test_bad_predicate_surfaces_at_definition(self):
        with pytest.raises(Exception):
            ViewDefinition(
                "v", "parts", columns=("part_id",), predicate="((("
            )
