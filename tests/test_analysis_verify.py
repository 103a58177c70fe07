"""The delta-rule verifier: small-scope equivalence proofs for plans."""

import dataclasses

import pytest

from repro.analysis.verify import (
    CertificateCache,
    DeltaRuleVerifier,
    ScopeConfig,
)
from repro.analysis.verify.certificate import (
    schema_fingerprint,
    view_sql_hash,
)
from repro.analysis.verify.domain import enumerate_scope, spj_shape
from repro.analysis.verify.findings import (
    ERROR_CODES,
    RULE_AGG_RETRACT,
    RULE_DIVERGENCE,
    RULE_NOT_IDEMPOTENT,
    RULE_READS_BASE,
    RULE_SOURCE_UNUSED,
)
from repro.analysis.verify.verifier import VERIFIER_VERSION
from repro.core.opdelta import OpKind
from repro.core.selfmaint import ViewDefinition
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INTEGER, char
from repro.errors import AnalysisError, WarehouseError
from repro.semantics import SchemaCatalog, ViewMaintenancePlanner
from repro.semantics.planner import (
    DeltaRule,
    MaintenancePlan,
    RuleAction,
    ViewClass,
)
from repro.warehouse.aggregates import (
    AggregateSpec,
    AggregateViewDefinition,
    MaterializedAggregateView,
)
from repro.warehouse.opdelta_integrator import OpDeltaIntegrator
from repro.warehouse.warehouse import Warehouse

SCHEMA = TableSchema(
    "t",
    [
        Column("k", INTEGER, nullable=False),
        Column("a", INTEGER, nullable=False),
        Column("b", INTEGER),
        Column("c", char(4), nullable=False),
    ],
    primary_key="k",
)

FULL_VIEW = ViewDefinition(
    "full_t", "t", columns=("k", "a", "b", "c"), key_column="k"
)
SEL_VIEW = ViewDefinition(
    "sel_t",
    "t",
    columns=("k", "a", "b", "c"),
    predicate="a > 5",
    key_column="k",
)
AGG_VIEW = AggregateViewDefinition(
    "agg_t",
    "t",
    group_by=("a",),
    aggregates=(AggregateSpec("COUNT"), AggregateSpec("SUM", "b")),
)


def planner():
    return ViewMaintenancePlanner(SchemaCatalog([SCHEMA]))


def verifier(**kwargs):
    kwargs.setdefault("cache", CertificateCache())
    return DeltaRuleVerifier(**kwargs)


class TestScopeEnumeration:
    def scope(self, definition=SEL_VIEW, config=None):
        shape = spj_shape(definition, SCHEMA)
        return enumerate_scope(shape, SCHEMA, config or ScopeConfig())

    def test_empty_database_in_scope(self):
        assert () in self.scope().databases

    def test_boundary_values_populate_rows(self):
        # 'a > 5' must be exercised from both sides of the boundary.
        seen = {
            row[1] for db in self.scope().databases for row in db
        }
        assert {5, 6} <= seen

    def test_nullable_column_gets_null(self):
        seen = {
            row[2] for db in self.scope().databases for row in db
        }
        assert None in seen

    def test_all_dml_kinds_enumerated(self):
        ops = self.scope().ops_by_kind
        assert set(ops) == {"INSERT", "UPDATE", "DELETE"}
        assert all(ops[kind] for kind in ops)

    def test_ops_deduplicated(self):
        for ops in self.scope().ops_by_kind.values():
            sqls = [op.sql for op in ops]
            assert len(sqls) == len(set(sqls))

    def test_caps_respected_and_accounted(self):
        config = ScopeConfig(max_databases=3, max_ops_per_kind=2)
        scope = self.scope(config=config)
        assert len(scope.databases) <= 3
        assert all(len(ops) <= 2 for ops in scope.ops_by_kind.values())
        assert scope.truncated  # the cut enumeration is not silent

    def test_enumeration_deterministic(self):
        first, second = self.scope(), self.scope()
        assert first.databases == second.databases
        assert {
            kind: [op.sql for op in ops]
            for kind, ops in first.ops_by_kind.items()
        } == {
            kind: [op.sql for op in ops]
            for kind, ops in second.ops_by_kind.items()
        }


class TestCertificateKeys:
    def test_hash_stable(self):
        plan = planner().plan_view(SEL_VIEW)
        scope = ScopeConfig()
        assert view_sql_hash(
            SEL_VIEW, plan, scope, VERIFIER_VERSION
        ) == view_sql_hash(SEL_VIEW, plan, scope, VERIFIER_VERSION)

    def test_hash_sensitive_to_scope_and_version(self):
        plan = planner().plan_view(SEL_VIEW)
        base = view_sql_hash(SEL_VIEW, plan, ScopeConfig(), VERIFIER_VERSION)
        assert base != view_sql_hash(
            SEL_VIEW, plan, ScopeConfig(max_rows=1), VERIFIER_VERSION
        )
        assert base != view_sql_hash(
            SEL_VIEW, plan, ScopeConfig(), VERIFIER_VERSION + 1
        )

    def test_hash_sensitive_to_definition(self):
        p = planner()
        assert view_sql_hash(
            SEL_VIEW, p.plan_view(SEL_VIEW), ScopeConfig(), VERIFIER_VERSION
        ) != view_sql_hash(
            FULL_VIEW, p.plan_view(FULL_VIEW), ScopeConfig(), VERIFIER_VERSION
        )

    def test_schema_fingerprint_covers_dim(self):
        dim = TableSchema(
            "d", [Column("k", INTEGER, nullable=False)], primary_key="k"
        )
        assert schema_fingerprint(SCHEMA) != schema_fingerprint(SCHEMA, dim)


class TestCertifyPlan:
    def test_full_mirror_verified(self):
        certificate = verifier().certify_plan(
            planner().plan_view(FULL_VIEW), FULL_VIEW, SCHEMA
        )
        assert certificate.verified
        assert certificate.scenarios > 0
        assert not [f for f in certificate.findings if f.refutes]

    def test_selective_view_verified(self):
        certificate = verifier().certify_plan(
            planner().plan_view(SEL_VIEW), SEL_VIEW, SCHEMA
        )
        assert certificate.verified

    def test_aggregate_verified_with_idempotency_warnings(self):
        certificate = verifier().certify_plan(
            planner().plan_aggregate(AGG_VIEW), AGG_VIEW, SCHEMA
        )
        assert certificate.verified
        codes = {f.code for f in certificate.findings}
        assert RULE_NOT_IDEMPOTENT in codes  # silent add/retract drift
        assert not codes & ERROR_CODES

    def test_cache_pay_once(self):
        v = verifier()
        plan = planner().plan_view(FULL_VIEW)
        first = v.certify_plan(plan, FULL_VIEW, SCHEMA)
        second = v.certify_plan(plan, FULL_VIEW, SCHEMA)
        assert second is first
        assert v.cache.hits == 1 and v.cache.misses == 1

    def test_invalid_plan_refused(self):
        bad = ViewDefinition(
            "bad_t", "t", columns=("k",), predicate="zz > 1", key_column="k"
        )
        plan = planner().plan_view(bad)
        assert not plan.valid
        with pytest.raises(AnalysisError):
            verifier().certify_plan(plan, bad, SCHEMA)

    def test_stamp_names_hash_and_verdict(self):
        certificate = verifier().certify_plan(
            planner().plan_view(FULL_VIEW), FULL_VIEW, SCHEMA
        )
        hash12, verdict = certificate.stamp.split(":")
        assert certificate.view_sql_hash.startswith(hash12)
        assert verdict == "VERIFIED"


def _doctor(plan: MaintenancePlan, **rule_overrides) -> MaintenancePlan:
    """A plan with one rule swapped out (test fixture only: REPRO007)."""
    kind = rule_overrides.pop("kind")
    rules = tuple(
        dataclasses.replace(rule, **rule_overrides)
        if rule.kind is kind
        else rule
        for rule in plan.rules
    )
    return dataclasses.replace(plan, rules=rules)


def _wrong_sum_factory(database, definition, schema):
    """SUM contributions retract with the wrong sign (silent corruption)."""

    class _Wrong(MaterializedAggregateView):
        _flip = False

        def _remove_row(self, row, txn):
            self._flip = True
            try:
                super()._remove_row(row, txn)
            finally:
                self._flip = False

        def _contribution(self, spec, row):
            value = super()._contribution(spec, row)
            if self._flip and spec.function == "SUM" and value is not None:
                return -value
            return value

    return _Wrong(database, definition, schema)


def _broken_retraction_factory(database, definition, schema):
    """Retraction blows up instead of emptying the group."""

    class _Broken(MaterializedAggregateView):
        def _remove_row(self, row, txn):
            raise WarehouseError("retraction underflow on emptied group")

    return _Broken(database, definition, schema)


class TestFindingCodes:
    def test_rule001_wrong_sign_refuted_with_counterexample(self):
        plan = planner().plan_aggregate(AGG_VIEW)
        v = verifier(aggregate_factory=_wrong_sum_factory)
        certificate = v.certify_plan(plan, AGG_VIEW, SCHEMA)
        assert not certificate.verified
        errors = [f for f in certificate.findings if f.refutes]
        assert {f.code for f in errors} <= ERROR_CODES
        assert any(f.code == RULE_DIVERGENCE for f in errors)
        example = next(
            f for f in errors if f.code == RULE_DIVERGENCE
        ).counterexample
        assert example is not None and example.op_sql

    def test_rule001_counterexample_replays_divergent(self):
        plan = planner().plan_aggregate(AGG_VIEW)
        v = verifier(aggregate_factory=_wrong_sum_factory)
        certificate = v.certify_plan(plan, AGG_VIEW, SCHEMA)
        finding = next(
            f
            for f in certificate.findings
            if f.refutes and f.counterexample is not None
        )
        assert v.replay(plan, AGG_VIEW, SCHEMA, finding)

    def test_rule002_lean_rule_reading_base_state(self):
        # The plan claims UPDATE applies from the operation alone, but the
        # dynamic classification demands before images: the verifier must
        # catch the lie instead of silently capturing what the rule needs.
        plan = _doctor(
            planner().plan_view(SEL_VIEW),
            kind=OpKind.UPDATE,
            action=RuleAction.DYNAMIC,
            needs_before_image=False,
        )
        certificate = verifier().certify_plan(plan, SEL_VIEW, SCHEMA)
        assert not certificate.verified
        assert RULE_READS_BASE in {
            f.code for f in certificate.findings if f.refutes
        }

    def test_rule003_source_query_plan_never_consults_source(self):
        rules = tuple(
            DeltaRule(kind, RuleAction.SOURCE_QUERY, False, "hand-built")
            for kind in (OpKind.INSERT, OpKind.UPDATE, OpKind.DELETE)
        )
        plan = MaintenancePlan(
            view=FULL_VIEW.name,
            base_table="t",
            view_kind="spj",
            classification=ViewClass.SOURCE_QUERY_NEEDED,
            rules=rules,
        )
        certificate = verifier().certify_plan(plan, FULL_VIEW, SCHEMA)
        assert certificate.verified  # over-conservatism is not unsoundness
        warnings = [f for f in certificate.findings if not f.refutes]
        assert RULE_SOURCE_UNUSED in {f.code for f in warnings}

    def test_rule004_retraction_error_on_emptied_group(self):
        plan = planner().plan_aggregate(AGG_VIEW)
        v = verifier(aggregate_factory=_broken_retraction_factory)
        certificate = v.certify_plan(plan, AGG_VIEW, SCHEMA)
        assert not certificate.verified
        assert RULE_AGG_RETRACT in {
            f.code for f in certificate.findings if f.refutes
        }

    def test_rule005_is_warning_only(self):
        certificate = verifier().certify_plan(
            planner().plan_aggregate(AGG_VIEW), AGG_VIEW, SCHEMA
        )
        for finding in certificate.findings:
            if finding.code == RULE_NOT_IDEMPOTENT:
                assert not finding.refutes


class TestIntegratorPreflight:
    def _warehouse(self):
        wh = Warehouse("verify-test-wh")
        wh.create_mirror(SCHEMA)
        view = wh.define_view(FULL_VIEW, SCHEMA)
        agg = MaterializedAggregateView(wh.database, AGG_VIEW, SCHEMA)
        return wh, view, agg

    def test_verified_plans_stamp_reports(self):
        wh, view, agg = self._warehouse()
        p = planner()
        plans = {
            FULL_VIEW.name: p.plan_view(FULL_VIEW),
            AGG_VIEW.name: p.plan_aggregate(AGG_VIEW),
        }
        integrator = OpDeltaIntegrator(
            wh.database.internal_session(),
            views=[view],
            aggregate_views=[agg],
            plans=plans,
            verifier=verifier(),
        )
        report = integrator.integrate([])
        assert set(report.plan_certificates) == set(plans)
        assert all(
            stamp.endswith(":VERIFIED")
            for stamp in report.plan_certificates.values()
        )

    def test_refuted_plan_refused_at_construction(self):
        wh, _view, agg = self._warehouse()
        plan = planner().plan_aggregate(AGG_VIEW)
        with pytest.raises(WarehouseError, match="refuted"):
            OpDeltaIntegrator(
                wh.database.internal_session(),
                aggregate_views=[agg],
                plans={AGG_VIEW.name: plan},
                verifier=verifier(aggregate_factory=_wrong_sum_factory),
            )

    def test_preflight_uses_shared_cache(self):
        v = verifier()
        plan = planner().plan_view(FULL_VIEW)
        v.certify_plan(plan, FULL_VIEW, SCHEMA)
        wh, view, _agg = self._warehouse()
        hits = v.cache.hits
        OpDeltaIntegrator(
            wh.database.internal_session(),
            views=[view],
            plans={FULL_VIEW.name: plan},
            verifier=v,
        )
        assert v.cache.hits == hits + 1
