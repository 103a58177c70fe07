"""Property test: serial ≡ row-batched ≡ columnar apply.

One helper replays a window through the integrator's single apply
pipeline under each of its three configurations; every pair must agree.
For random captured windows — inserts (with NULLs), literal and
arithmetic updates, NULL-writing updates, range deletes, pinned ``NOW()``
statements, and predicate-crossing updates that force the hybrid
before-image path — the columnar group-apply mode must leave the mirror
and every materialized view **bit-for-bit** identical to the
row-at-a-time replay: equal raw row sets and equal XOR-SHA256 state
digests.  The window is optionally compacted first (the coalescer's
rewrites must stay columnar-safe), and hybrid-plan statements must
barrier to the row path rather than diverge.

About half the statements spell their WHERE and SET references
``parts.column``: the transformer, the view rewrite, both executors and the
after images derived from a hybrid op's SET list must all read that as the
bare name.

Statements reach their rows both ways in one window: ``part_ref`` ranges
have no index (the columnar mode images the table), while ``part_id``
points and narrow ``part_id`` ranges go through the key B-tree (it gathers
just those rows).  Row-batched and columnar apply ask the same access-path
chooser, so they must also agree on the *physical* layout — every table
scans to the same ``(RowId, values)`` list.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import OpDeltaAnalyzer
from repro.compaction import Coalescer
from repro.core import FileLogStore, OpDeltaCapture
from repro.core.selfmaint import ViewDefinition
from repro.engine import Database
from repro.obs.pipeline.auditor import StateDigest
from repro.semantics import (
    PlanDrivenCapturePolicy,
    SchemaCatalog,
    ViewMaintenancePlanner,
)
from repro.warehouse import OpDeltaIntegrator, Warehouse
from repro.workloads import OltpWorkload, parts_schema

_COLS = (
    "part_id, part_ref, part_no, description, status, quantity, price, "
    "last_modified, supplier_id"
)

#: One random statement: (kind, offset, size) — offsets/sizes are scaled
#: into row ranges; inserts allocate fresh part_ids from the op index.
_operations = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "insert",
                "insert_null",
                "update_literal",
                "update_arith",
                "update_null",
                "update_predicate",
                "update_now",
                "delete",
                "update_point",
                "delete_point",
                "update_pk_range",
                "insert_then_point_update",
            ]
        ),
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=1, max_value=8),
    ),
    min_size=1,
    max_size=8,
)


def build_analyzer_and_plans():
    """A full-width view plus a predicated one (hybrid-plan barriers)."""
    schema = parts_schema()
    full = ViewDefinition(
        name="parts_catalog",
        base_table="parts",
        columns=schema.column_names,
        predicate=None,
        key_column="part_id",
        base_columns=schema.column_names,
    )
    pricey = ViewDefinition(
        name="pricey_parts",
        base_table="parts",
        columns=("part_id", "status", "quantity"),
        predicate="quantity > 500",
        key_column="part_id",
        base_columns=schema.column_names,
    )
    analyzer = OpDeltaAnalyzer(
        views=[full, pricey],
        mirrored_tables={"parts"},
        key_columns={"parts": "part_id"},
        table_columns={"parts": schema.column_names},
    )
    plans = ViewMaintenancePlanner(SchemaCatalog([schema])).plan_catalog(
        [full, pricey]
    )
    return analyzer, plans, (full, pricey)


def run_source_operations(session, operations):
    for index, (kind, offset, size) in enumerate(operations):
        low, high = offset, offset + size
        # Every WHERE and SET reference, bare or qualified by the base table
        # — the source accepts both, so every apply path must, the hybrid
        # before-image path (which derives after images from the SET list)
        # included.
        ref, key, qty = ("parts.part_ref", "parts.part_id", "parts.quantity") if (
            high % 2
        ) else ("part_ref", "part_id", "quantity")
        if kind == "insert":
            pid = 500_000 + index
            session.execute(
                f"INSERT INTO parts ({_COLS}) VALUES ({pid}, {pid}, "
                f"'PN-{pid}', 'prop row', 'new', {400 + size * 30}, 9.5, "
                "0, 7)"
            )
        elif kind == "insert_null":
            pid = 500_000 + index
            session.execute(
                f"INSERT INTO parts ({_COLS}) VALUES ({pid}, {pid}, "
                f"'PN-{pid}', NULL, 'new', 510, 9.5, NULL, 7)"
            )
        elif kind == "update_literal":
            session.execute(
                f"UPDATE parts SET status = 'u{size}' "
                f"WHERE {ref} >= {low} AND {ref} < {high}"
            )
        elif kind == "update_arith":
            session.execute(
                f"UPDATE parts SET quantity = {qty} + {size} "
                f"WHERE {ref} >= {low} AND {ref} < {high}"
            )
        elif kind == "update_null":
            session.execute(
                f"UPDATE parts SET description = NULL "
                f"WHERE {ref} >= {low} AND {ref} < {high}"
            )
        elif kind == "update_predicate":
            # Crosses the pricey_parts predicate boundary in both
            # directions: the planner's rules for the predicated view
            # need before images, so these barrier to the row path.
            boundary = 450 + size * 20
            session.execute(
                f"UPDATE parts SET quantity = {boundary} "
                f"WHERE {ref} >= {low} AND {ref} < {high}"
            )
        elif kind == "update_now":
            session.execute(
                f"UPDATE parts SET last_modified = NOW() "
                f"WHERE {ref} >= {low} AND {ref} < {high}"
            )
        elif kind == "delete":
            session.execute(
                f"DELETE FROM parts WHERE {ref} >= {low} "
                f"AND {ref} < {high}"
            )
        elif kind == "update_point":
            # Writes a column no range statement touches, so it commutes
            # with them and usually forms a component of its own.
            session.execute(
                f"UPDATE parts SET supplier_id = {size} WHERE {key} = {offset}"
            )
        elif kind == "delete_point":
            session.execute(f"DELETE FROM parts WHERE {key} = {offset}")
        elif kind == "update_pk_range":
            # The top of the key space: ``part_id >= 29`` is one row in
            # thirty, under the chooser's selectivity threshold (B-tree
            # range); a lower bound of 27 or 28 is over it (scan).
            bottom = 29 - offset % 3
            session.execute(
                f"UPDATE parts SET quantity = {qty} + {size} "
                f"WHERE {key} >= {bottom} AND {key} <= {bottom + size}"
            )
        else:  # insert_then_point_update: the update reads the fresh key
            pid = 500_000 + index
            session.execute(
                f"INSERT INTO parts ({_COLS}) VALUES ({pid}, {pid}, "
                f"'PN-{pid}', 'fresh row', 'new', {480 + size * 10}, 9.5, "
                "0, 7)"
            )
            session.execute(
                f"UPDATE parts SET status = 'f{size}', quantity = {qty} + "
                f"{offset} WHERE {key} = {pid}"
            )


def build_warehouse(label, clock, initial_rows, view_defs, analyzer, plans):
    schema = parts_schema()
    wh = Warehouse(f"prop-col-{label}", clock=clock)
    wh.create_mirror(schema)
    wh.initial_load_rows("parts", initial_rows)
    views = []
    for view_def in view_defs:
        view = wh.define_view(view_def, schema)
        txn = wh.database.begin()
        view.initialize(initial_rows, txn)
        wh.database.commit(txn)
        views.append(view)
    integrator = OpDeltaIntegrator(
        wh.database.internal_session(),
        views=views,
        analyzer=analyzer,
        plans=plans,
    )
    return wh, integrator


def states(wh):
    mirror = sorted(v for _rid, v in wh.database.table("parts").scan())
    return (
        mirror,
        wh.view("parts_catalog").rows(),
        wh.view("pricey_parts").rows(),
    )


def layout(wh):
    """Every table as stored: ``(RowId, values)`` in physical order."""
    return [
        list(wh.database.table(name).scan())
        for name in ("parts", "parts_catalog", "pricey_parts")
    ]


#: The three configurations of the integrator's one apply pipeline.
CONFIGURATIONS = ("serial", "row-batched", "columnar")


def replay(configuration, window, graph, clock, initial_rows, view_defs,
           analyzer, plans):
    """One fresh warehouse, one window, one configuration of the pipeline."""
    wh, integrator = build_warehouse(
        configuration, clock, initial_rows, view_defs, analyzer, plans
    )
    if configuration == "serial":
        report = integrator.integrate(window)
    else:
        report = integrator.integrate_batched(
            window, graph, columnar=configuration == "columnar"
        )
    return states(wh), report, layout(wh)


def check_configurations_agree(operations, compacted):
    """Capture ``operations`` at a source, replay the window three ways."""
    source = Database("prop-col-source")
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(30)
    initial_rows = [v for _rid, v in source.table("parts").scan()]

    analyzer, plans, view_defs = build_analyzer_and_plans()
    store = FileLogStore(source)
    capture = OpDeltaCapture(
        workload.session,
        store,
        tables={"parts"},
        analyzer=analyzer,
        hybrid_policy=PlanDrivenCapturePolicy(plans),
    )
    capture.attach()
    run_source_operations(workload.session, operations)
    capture.detach()
    window = store.drain()
    if compacted:
        window, _report = Coalescer(
            analyzer=analyzer, clock=source.clock
        ).compact_window(window)
    if not window:
        return

    graph = analyzer.conflict_graph(window)
    outcomes = {
        configuration: replay(
            configuration, window, graph, source.clock, initial_rows,
            view_defs, analyzer, plans,
        )
        for configuration in CONFIGURATIONS
    }
    for first, second in itertools.combinations(CONFIGURATIONS, 2):
        state_a, report_a, _layout = outcomes[first]
        state_b, report_b, _layout = outcomes[second]
        pair = f"{first} vs {second}"
        # Raw rows bit-for-bit across every pair of replays...
        assert state_a == state_b, pair
        # ...the auditor's XOR-SHA256 digests agree at every position...
        for position, rows_a, rows_b in zip(
            ("mirror", "view", "pricey"), state_a, state_b
        ):
            assert StateDigest.from_rows(rows_a) == StateDigest.from_rows(
                rows_b
            ), (pair, position)
        # ...and so does the statement and row accounting.
        assert report_a.statements_issued == report_b.statements_issued, pair
        assert report_a.rows_affected == report_b.rows_affected, pair
    # Same chooser, same candidate order: the same physical layout.
    assert outcomes["row-batched"][2] == outcomes["columnar"][2]
    # The columnar mode really ran: every statement either batched or
    # fell back across a barrier, and the report accounts for both.
    col_report = outcomes["columnar"][1]
    assert (
        col_report.columnar_statements > 0 or col_report.columnar_fallbacks > 0
    )


#: A window no statement of which needs a scan: points, a B-tree range at
#: the top of the key space, an insert whose key the next statement updates,
#: and a second update of an already-updated key.  Its conflict components
#: are small, and the columnar mode gathers every batch through a key index.
KEYED_WINDOW = [
    ("update_point", 20, 1),
    ("delete_point", 3, 1),
    ("update_pk_range", 0, 3),
    ("insert_then_point_update", 6, 2),
    ("delete_point", 24, 2),
    ("update_point", 20, 7),
]
#: The same with ``part_ref`` ranges between them.  Hybrid capture makes a
#: range conflict with every statement, so this is one component: gathered
#: batches until the first range images the tables, the image from then on.
MIXED_WINDOW = [
    *KEYED_WINDOW[:2],
    ("update_literal", 0, 5),
    *KEYED_WINDOW[2:],
    ("delete", 10, 3),
    ("update_point", 12, 5),
]


#: Qualified SET references on statements the predicated view needs before
#: images for: their after images are derived from ``parts.quantity + n``.
QUALIFIED_SET_WINDOW = [
    ("update_arith", 0, 3),
    ("insert_then_point_update", 6, 1),
    ("update_pk_range", 0, 1),
]


@given(_operations, st.booleans())
@settings(max_examples=12, deadline=None)
@example(QUALIFIED_SET_WINDOW, False)
@example(KEYED_WINDOW, False)
@example(MIXED_WINDOW, False)
@example(MIXED_WINDOW, True)
def test_columnar_apply_is_bit_for_bit_the_row_apply(operations, compacted):
    check_configurations_agree(operations, compacted)


def test_point_delete_of_a_row_a_range_delete_removed():
    """A point DELETE that matched nothing at the source, because an earlier
    range DELETE had removed its row, stays after that DELETE.

    ``pricey_parts`` replays the range DELETE (on unprojected ``part_ref``)
    from its before image and the point DELETE from its statement: run
    first, the statement would remove the row the image then fails to find.
    """
    operations = [("update_literal", 0, 1), ("delete", 1, 1), ("delete_point", 1, 1)]
    check_configurations_agree(operations, compacted=False)
