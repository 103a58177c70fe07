"""Property-based tests: view maintenance equals recomputation.

Random workloads against random SPJ view definitions: maintaining the
materialized view incrementally (op path with hybrid capture, and value
path) must always equal recomputing it from the base table — and a hybrid
Op-Delta must maintain SPJ and aggregate views exactly as the value delta
it derives does.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    AlwaysHybridPolicy,
    FileLogStore,
    OpDeltaCapture,
    ViewDefinition,
)
from repro.core.opdelta import derive_row_images
from repro.engine import Database
from repro.extraction import TriggerExtractor
from repro.extraction.deltas import ChangeKind, DeltaRecord
from repro.obs.pipeline.auditor import StateDigest
from repro.semantics import (
    PlanDrivenCapturePolicy,
    SchemaCatalog,
    ViewMaintenancePlanner,
)
from repro.warehouse import (
    AggregateSpec,
    AggregateViewDefinition,
    MaterializedAggregateView,
    Warehouse,
)
from repro.warehouse.views import contents
from repro.workloads import OltpWorkload, parts_schema

BASE = parts_schema().column_names

_projections = st.sampled_from([
    ("part_id", "status", "quantity", "price"),
    ("part_id", "status"),
    ("part_id", "quantity"),
    BASE,
])
_predicates = st.sampled_from([
    None,
    "quantity > 500",
    "quantity <= 300",
    "price > 1000.0 AND quantity > 100",
])
_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "set_low", "set_high", "delete"]),
        st.integers(min_value=1, max_value=10),
    ),
    min_size=1,
    max_size=6,
)


def _delta_record(before, after):
    """The value-delta record carrying one derived image pair."""
    if before is None:
        kind = ChangeKind.INSERT
    elif after is None:
        kind = ChangeKind.DELETE
    else:
        kind = ChangeKind.UPDATE
    return DeltaRecord(kind, (before or after)[0], before=before, after=after)


def _compatible(projection, predicate):
    # Predicates must be evaluable on base rows regardless of projection —
    # they are; nothing to filter. Kept for clarity.
    return True


#: The input on which hybrid and derived maintenance keep different raw
#: ``last_modified`` values (ROADMAP item 1: the source's auto-stamp is a
#: write the captured statement text does not contain).
STAMP_HOLE = dict(
    projection=BASE, predicate=None,
    operations=[("set_low", 1), ("set_low", 1)],
)


def _digest(view):
    return StateDigest.from_rows(values for _rid, values in view.table.scan())


def _maintain(projection, predicate, operations):
    """Run ``operations`` at a source and maintain every view arm from them.

    Returns ``(op_view, value_view, spj_pair, aggregate_pair, expected)``:
    the pairs are (maintained from hybrid ops, maintained from the value
    delta those ops derive), ``expected`` is the recomputed view.
    """
    source = Database("prop-view-src")
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(80)

    definition = ViewDefinition(
        "v", "parts", columns=projection, predicate=predicate,
        key_column="part_id", base_columns=BASE,
    )
    warehouse = Warehouse(clock=source.clock)
    op_view = warehouse.define_view(definition, parts_schema())
    value_view = warehouse.define_view(
        ViewDefinition(
            "v2", "parts", columns=projection, predicate=predicate,
            key_column="part_id", base_columns=BASE,
        ),
        parts_schema(),
    )
    # The hybrid arm: an SPJ and an aggregate view maintained from hybrid
    # Op-Deltas, and a twin of each maintained from the derived value delta.
    spj_pair = [
        warehouse.define_view(
            ViewDefinition(
                name, "parts", columns=projection, predicate=predicate,
                key_column="part_id", base_columns=BASE,
            ),
            parts_schema(),
        )
        for name in ("v_hybrid", "v_derived")
    ]
    aggregate_pair = [
        MaterializedAggregateView(
            warehouse.database,
            AggregateViewDefinition(
                name, "parts", group_by=("status",), predicate=predicate,
                aggregates=(
                    AggregateSpec("COUNT"),
                    AggregateSpec("SUM", "quantity"),
                    AggregateSpec("AVG", "price"),
                ),
            ),
            parts_schema(),
        )
        for name in ("a_hybrid", "a_derived")
    ]
    initial = [v for _r, v in source.table("parts").scan()]
    txn = warehouse.database.begin()
    for view in (op_view, value_view, *spj_pair, *aggregate_pair):
        view.initialize(initial, txn)
    warehouse.database.commit(txn)

    store = FileLogStore(source)
    OpDeltaCapture(
        workload.session, store, tables={"parts"},
        hybrid_policy=PlanDrivenCapturePolicy(
            ViewMaintenancePlanner(SchemaCatalog([parts_schema()])).plan_catalog(
                [definition]
            )
        ),
    ).attach()
    hybrid_store = FileLogStore(source)
    OpDeltaCapture(
        workload.session, hybrid_store, tables={"parts"},
        hybrid_policy=AlwaysHybridPolicy(),
    ).attach()
    triggers = TriggerExtractor(source, "parts")
    triggers.install()

    for kind, size in operations:
        if kind == "insert":
            workload.run_insert(size)
        elif kind == "set_low":
            workload.run_update(size, assignment="quantity = 0")
        elif kind == "set_high":
            workload.run_update(size, assignment="quantity = 900")
        elif workload.live_rows > size:
            workload.run_delete(size, top_up=False)

    txn = warehouse.database.begin()
    for group in store.drain():
        for op in group.operations:
            op_view.apply_operation(op, txn)
    value_view.apply_value_delta(triggers.drain_to_batch().records, txn)
    hybrid_ops = [op for group in hybrid_store.drain() for op in group.operations]
    derived = [
        _delta_record(before, after)
        for op in hybrid_ops
        for before, after in derive_row_images(op, BASE)
    ]
    for from_ops, from_records in (spj_pair, aggregate_pair):
        for op in hybrid_ops:
            from_ops.apply_operation(op, txn)
        from_records.apply_value_delta(derived, txn)
    warehouse.database.commit(txn)

    base_rows = source.table("parts").scan_values()
    return (
        op_view, value_view, spj_pair, aggregate_pair,
        contents(op_view.definition, [(parts_schema(), base_rows)]),
    )


@given(_projections, _predicates, _operations)
@settings(max_examples=30, deadline=None)
@example(**STAMP_HOLE)
def test_incremental_maintenance_equals_recompute(projection, predicate, operations):
    if not _compatible(projection, predicate):
        return
    op_view, value_view, spj_pair, aggregate_pair, expected = _maintain(
        projection, predicate, operations
    )

    def normalise(rows):
        if "last_modified" not in projection:
            return sorted(rows)
        position = projection.index("last_modified")
        return sorted(
            tuple(v for i, v in enumerate(row) if i != position) for row in rows
        )

    assert normalise(op_view.rows()) == normalise(expected)
    assert normalise(value_view.rows()) == normalise(expected)
    assert normalise(spj_pair[0].rows()) == normalise(expected)
    assert normalise(spj_pair[0].rows()) == normalise(spj_pair[1].rows())
    assert _digest(aggregate_pair[0]) == _digest(aggregate_pair[1])


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: auto-stamps are not pinned into the shipped op, "
    "so hybrid and derived views keep different last_modified values; the "
    "PR that pins them must flip this test",
)
def test_hybrid_and_derived_views_agree_on_raw_last_modified():
    _op, _value, (hybrid, derived), _aggregates, _expected = _maintain(
        **STAMP_HOLE
    )
    assert _digest(hybrid) == _digest(derived)
