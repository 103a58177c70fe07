"""Property test: one judge decides how a view replays an op.

``replay_kind(view, statement)`` is the apply path; the planner's rules are
its per-kind widening (every base column read, and for UPDATE assigned).
For drawn views — projection × predicate × key × join (none, columnless,
projecting, unavailable) — and drawn INSERT/UPDATE/DELETE statements over a
table without ``auto_timestamp`` (nothing is stripped before comparing):

* the per-shape answer is what the judge's pure body answers for this view;
* ``MaterializedView.apply_operation`` returns ``replay_kind``;
* a DELETE is among ``op_footprint``'s ``image_views`` iff ``replay_kind``
  is not ``OP_ONLY``;
* a self-maintainable plan's rule that needs no before image means every
  statement of its kind is ``OP_ONLY``, and a plan needs a source query iff
  the judge says so;
* replaying what ``PlanDrivenCapturePolicy`` captured equals recomputing
  the view from the source.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.safety import op_footprint
from repro.core import FileLogStore, JoinSpec, OpDeltaCapture, ViewDefinition
from repro.core.selfmaint import Maintainability, _columns_of, _replay, replay_kind
from repro.engine import Column, Database, TableSchema
from repro.engine.table import InsertMode
from repro.engine.types import INTEGER
from repro.errors import SelfMaintenanceError, WarehouseError
from repro.semantics import (
    PlanDrivenCapturePolicy,
    SchemaCatalog,
    ViewMaintenancePlanner,
)
from repro.warehouse.views import MaterializedView

BASE = ("k", "a", "b", "c")
T = TableSchema(
    "t",
    [Column("k", INTEGER, nullable=False)]
    + [Column(name, INTEGER) for name in BASE[1:]],
    primary_key="k",
)
D = TableSchema(
    "d",
    [Column("dk", INTEGER, nullable=False), Column("dn", INTEGER)],
    primary_key="dk",
)
ROWS = [
    (1, 0, 1, 0), (2, 1, 2, 1), (3, 2, 0, 2), (4, 3, 3, 3),
    (5, None, 1, 1), (6, 2, None, 0), (7, 1, 1, None), (8, 3, 0, 2),
]
DIM_ROWS = [(0, 10), (1, 11), (2, 12)]  # no dimension row for c = 3

JOINS = {
    "none": None,
    "columnless": JoinSpec("d", "c", "dk"),
    "projecting": JoinSpec("d", "c", "dk", columns=("dn",)),
    "unavailable": JoinSpec(
        "d", "c", "dk", columns=("dn",), available_at_warehouse=False
    ),
}

_projections = st.sampled_from([
    BASE, ("k", "a", "b"), ("k", "b", "c"), ("k", "a"), ("k", "c"), ("k",),
    ("a", "b", "c"), ("b",),
])
_predicates = st.sampled_from([None, "a > 1", "b <= 1 AND c >= 1", "1 = 1"])
_small = st.integers(min_value=0, max_value=3)
_where = st.one_of(
    st.none(),
    st.integers(min_value=1, max_value=8).map(lambda k: f"k = {k}"),
    st.tuples(st.sampled_from(BASE[1:]), st.sampled_from(["=", ">", "<="]), _small)
    .map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
    st.just("a = b"),
)
_value = st.one_of(_small.map(str), st.just("NULL"))


def _with_where(sql, where):
    return sql if where is None else f"{sql} WHERE {where}"


_update = st.tuples(
    st.sampled_from(BASE[1:]),
    st.one_of(_value, st.sampled_from(["a + 1", "b", "c + 1"])),
    _where,
).map(lambda t: _with_where(f"UPDATE t SET {t[0]} = {t[1]}", t[2]))
_delete = _where.map(lambda where: _with_where("DELETE FROM t", where))
_insert = st.tuples(_value, _value, _value)
_statements = st.lists(
    st.one_of(_update, _delete, _insert), min_size=1, max_size=5
)


def _sql(statement, at):
    """A drawn statement as text; an INSERT gets a fresh key."""
    if isinstance(statement, tuple):
        return f"INSERT INTO t VALUES ({100 + at}, {', '.join(statement)})"
    return statement


def _capture(definition, plan, sqls):
    """Run ``sqls`` at a source; return the ops captured under the plan's
    policy, or lean when the plan refuses one, and the final source rows."""
    source = Database("replay-src")
    table = source.create_table(T)
    txn = source.begin()
    for row in ROWS:
        table.insert(txn, row, mode=InsertMode.BULK_INTERNAL)
    source.commit(txn)
    store = FileLogStore(source)
    session = source.internal_session()
    policy = PlanDrivenCapturePolicy([plan]) if plan.self_maintainable else None
    OpDeltaCapture(session, store, tables={"t"}, hybrid_policy=policy).attach()
    for sql in sqls:
        session.execute(sql)
    ops = [op for group in store.drain() for op in group.operations]
    return ops, list(table.scan_values())


def _view(definition, rows=ROWS):
    """A warehouse holding the dimension and ``definition`` over ``rows``."""
    warehouse = Database("replay-wh")
    dim = warehouse.create_table(D)
    txn = warehouse.begin()
    for row in DIM_ROWS:
        dim.insert(txn, row, mode=InsertMode.BULK_INTERNAL)
    warehouse.commit(txn)
    view = MaterializedView(warehouse, definition, T)
    txn = warehouse.begin()
    view.initialize(rows, txn)
    warehouse.commit(txn)
    return warehouse, view


#: The three UPDATE forms the per-kind widening answers OP_ONLY although the
#: view does not both key and project the full row with no predicate or
#: join: a full-width view without a key, a columnless join, a predicate
#: that names no column.
_DEGENERATE_UPDATE = ["UPDATE t SET a = 2 WHERE b <= 1"]


@settings(max_examples=100, deadline=None)
@example(projection=BASE, predicate=None, key=None, join="none",
         statements=_DEGENERATE_UPDATE)
@example(projection=BASE, predicate=None, key="k", join="columnless",
         statements=["UPDATE t SET c = 1 WHERE a > 0"])
@example(projection=BASE, predicate="1 = 1", key="k", join="none",
         statements=_DEGENERATE_UPDATE)
@given(
    projection=_projections,
    predicate=_predicates,
    # Weighted towards views whose replay can be compared with recomputing:
    # a projected key, and a dimension the warehouse holds.
    key=st.sampled_from(["k", "k", "k", None]),
    join=st.sampled_from(
        ["none", "none", "columnless", "projecting", "projecting", "unavailable"]
    ),
    statements=_statements,
)
def test_one_judge_decides_every_replay(projection, predicate, key, join, statements):
    definition = ViewDefinition(
        "v", "t", columns=projection, predicate=predicate, key_column=key,
        join=JOINS[join],
    )
    plan = ViewMaintenancePlanner(SchemaCatalog([T, D])).plan_view(definition)
    assert plan.valid
    sqls = [_sql(statement, at) for at, statement in enumerate(statements)]
    if not plan.self_maintainable:
        with pytest.raises(SelfMaintenanceError):
            PlanDrivenCapturePolicy([plan])
    ops, source_rows = _capture(definition, plan, sqls)
    assert len(ops) == len(sqls)

    for op in ops:
        kind = replay_kind(definition, op.statement)
        body = _replay(definition, *_columns_of(op.statement))
        assert kind is body, op.statement_text
        assert (kind is Maintainability.NOT_SELF_MAINTAINABLE) is (
            not plan.self_maintainable
        )
        rule = plan.rule_for(op.kind)
        if plan.self_maintainable and not rule.needs_before_image:
            assert kind is Maintainability.OP_ONLY, (rule, op.statement_text)
        if op.kind.value == "DELETE":
            image_views = op_footprint(op, views=[definition]).image_views
            assert ("v" in image_views) is (kind is not Maintainability.OP_ONLY)

    warehouse, view = _view(definition)
    txn = warehouse.begin()
    comparable = True
    for op in ops:
        kind = replay_kind(definition, op.statement)
        if kind is Maintainability.NOT_SELF_MAINTAINABLE:
            with pytest.raises(WarehouseError, match="without querying"):
                view.apply_operation(op, txn)
            comparable = False
            break
        if kind is not Maintainability.OP_ONLY and not definition.key_projected:
            # An image's rows are found by the view's key; without it the
            # view can replay only what it rewrites.
            comparable = False
            break
        assert view.apply_operation(op, txn) is kind, op.statement_text
    warehouse.commit(txn)
    if comparable:
        # Recomputed: the view initialised from the source's final rows
        # (compared as multisets, since NULLs do not sort).
        _, recomputed = _view(definition, source_rows)
        assert Counter(view.table.scan_values()) == Counter(
            recomputed.table.scan_values()
        )
