"""Planner misclassifications surfaced by the delta-rule verifier.

Each test pins a concrete counterexample the small-scope verifier found
against the pre-fix planner/view code, so the bug class cannot return:

* hidden-predicate rewrites: DELETE/UPDATE on a view that does not
  project its own predicate column used to be classified ``OP_ONLY``;
  the rewrite then referenced the unprojected column on the view's
  storage table and crashed (``unknown column 'c'``) on the verifier's
  micro-database ``[(1, 0, 'xx')]``;
* columnless joins: a join projecting no dimension attributes was gated
  as if it materialised dimension state, forcing before images (and a
  mirrored dimension table) nothing consumed;
* join-column nullability: the view storage table inherited ``NOT NULL``
  from the dimension schema, so a fact row whose join key had no
  mirrored dimension row crashed the left-join-style projection.
"""

from repro.analysis.verify import CertificateCache, DeltaRuleVerifier
from repro.core.opdelta import OpDelta, OpKind
from repro.core.selfmaint import JoinSpec, ViewDefinition
from repro.engine.database import Database
from repro.engine.schema import Column, TableSchema
from repro.engine.table import InsertMode
from repro.engine.types import INTEGER, char
from repro.semantics import RuleAction, SchemaCatalog, ViewMaintenancePlanner
from repro.warehouse.views import MaterializedView, contents

SCHEMA = TableSchema(
    "t",
    [
        Column("k", INTEGER, nullable=False),
        Column("a", INTEGER, nullable=False),
        Column("c", char(4), nullable=False),
        Column("dk", INTEGER, nullable=False),
    ],
    primary_key="k",
)
DIM = TableSchema(
    "d",
    [
        Column("dk", INTEGER, nullable=False),
        Column("dn", char(8), nullable=False),
    ],
    primary_key="dk",
)

#: The view of the pinned counterexample: predicate column not projected.
HIDDEN_PRED_VIEW = ViewDefinition(
    "v_hidden", "t", columns=("k", "a"), predicate="c = 'xx'", key_column="k"
)


def planner():
    return ViewMaintenancePlanner(SchemaCatalog([SCHEMA, DIM]))


def verifier():
    return DeltaRuleVerifier(cache=CertificateCache())


class TestHiddenPredicateRewrite:
    def test_delete_and_update_need_before_images(self):
        # Pre-fix: OP_ONLY — the rewrite path then evaluated "c = 'xx'"
        # against view rows that have no column c.
        plan = planner().plan_view(HIDDEN_PRED_VIEW)
        for kind in (OpKind.DELETE, OpKind.UPDATE):
            assert plan.rule_for(kind).needs_before_image, kind

    def test_plan_now_verifies(self):
        plan = planner().plan_view(HIDDEN_PRED_VIEW)
        certificate = verifier().certify_plan(plan, HIDDEN_PRED_VIEW, SCHEMA)
        assert certificate.verified, certificate.render()

    def _apply(self, sql: str, kind: OpKind) -> tuple[list, list]:
        """The verifier's counterexample, replayed concretely by hand."""
        database = Database("regress-hidden")
        table = database.create_table(SCHEMA)
        txn = database.begin()
        table.insert(txn, (1, 0, "xx", 1), mode=InsertMode.BULK_INTERNAL)
        database.commit(txn)
        view = MaterializedView(database, HIDDEN_PRED_VIEW, SCHEMA)
        txn = database.begin()
        view.initialize([(1, 0, "xx", 1)], txn)
        database.commit(txn)

        session = database.internal_session()
        session.begin()
        current = session.current_transaction
        delta = OpDelta(
            statement_text=sql,
            table="t",
            kind=kind,
            txn_id=1,
            sequence=1,
            captured_at=0.0,
            before_image=[(1, 0, "xx", 1)],
        )
        session.execute(sql)
        view.apply_operation(delta, current)
        rows = view.rows()
        expected = contents(HIDDEN_PRED_VIEW, [(SCHEMA, table.scan_values())])
        session.commit()
        return rows, expected

    def test_pinned_update_counterexample(self):
        # db=[(1, 0, 'xx')], op='UPDATE t SET a = 0': crashed pre-fix.
        rows, expected = self._apply("UPDATE t SET a = 0", OpKind.UPDATE)
        assert rows == expected == [(1, 0)]

    def test_pinned_delete_counterexample(self):
        # db=[(1, 0, 'xx')], op='DELETE FROM t': crashed pre-fix.
        rows, expected = self._apply("DELETE FROM t", OpKind.DELETE)
        assert rows == expected == []


class TestColumnlessJoin:
    VIEW = ViewDefinition(
        "v_nojcols",
        "t",
        columns=("k", "a", "dk"),
        key_column="k",
        join=JoinSpec("d", "dk", "dk"),
    )

    def test_view_needs_no_mirrored_dimension(self):
        # Pre-fix the constructor demanded a local copy of 'd' that
        # maintenance never consults.
        database = Database("regress-nojoin")
        database.create_table(SCHEMA)
        view = MaterializedView(database, self.VIEW, SCHEMA)
        assert view.table.schema.column_names == ("k", "a", "dk")

    def test_plan_verifies_without_dimension_schema(self):
        plan = planner().plan_view(self.VIEW)
        certificate = verifier().certify_plan(plan, self.VIEW, SCHEMA)
        assert certificate.verified, certificate.render()

    def test_columnless_join_never_forces_source_queries(self):
        # Pre-fix the bare join pushed every UPDATE/DELETE to
        # NOT_SELF_MAINTAINABLE when the dimension was not mirrored.
        plan = planner().plan_view(self.VIEW)
        for kind in (OpKind.UPDATE, OpKind.DELETE):
            assert plan.rule_for(kind).action is not RuleAction.SOURCE_QUERY, kind
        assert plan.self_maintainable


class TestJoinColumnNullability:
    VIEW = ViewDefinition(
        "v_joined",
        "t",
        columns=("k", "a", "dk"),
        key_column="k",
        join=JoinSpec("d", "dk", "dk", columns=("dn",)),
    )

    def _database(self):
        database = Database("regress-nulldim")
        database.create_table(SCHEMA)
        dim = database.create_table(DIM)
        txn = database.begin()
        dim.insert(txn, (1, "aa"), mode=InsertMode.BULK_INTERNAL)
        database.commit(txn)
        return database

    def test_storage_relaxes_dimension_not_null(self):
        view = MaterializedView(self._database(), self.VIEW, SCHEMA)
        assert DIM.column("dn").nullable is False
        assert view.table.schema.column("dn").nullable is True

    def test_unmatched_join_key_materialises_null(self):
        # Pre-fix this crashed: column v_joined.dn is NOT NULL.
        database = self._database()
        view = MaterializedView(database, self.VIEW, SCHEMA)
        txn = database.begin()
        view.initialize([(7, 0, "zz", 99)], txn)  # dk=99: no dim row
        database.commit(txn)
        assert view.rows() == [(7, 0, 99, None)]

    def test_join_plan_verifies(self):
        plan = planner().plan_view(self.VIEW)
        certificate = verifier().certify_plan(
            plan, self.VIEW, SCHEMA, dim_schema=DIM
        )
        assert certificate.verified, certificate.render()
