"""Property test: lineage conservation holds for every pipeline shape.

For random windows of source transactions, every captured op must settle
in exactly one conservation bucket — ``captured = applied + pruned +
absorbed + rejected`` with nothing left in flight — whichever pipeline
moved it: shipped verbatim, view-relevance pruned, window-compacted, or
batch-applied through the persistent queue.  Aborted source transactions
must settle too (as pruned), never dangle as gaps.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OpDeltaAnalyzer
from repro.compaction import Coalescer
from repro.core import FileLogStore, OpDeltaCapture
from repro.core.selfmaint import ViewDefinition
from repro.engine import Database
from repro.obs.pipeline import (
    PipelineAuditor,
    PipelineRecorder,
    observe_pipeline,
)
from repro.transport.network import NetworkModel
from repro.transport.queue import PersistentQueue
from repro.transport.shipper import FileShipper, enqueue_op_deltas
from repro.warehouse import OpDeltaIntegrator, Warehouse
from repro.workloads import OltpWorkload, parts_schema

from .pruning import prune_window

VARIANTS = ("plain", "pruned", "compacted", "batched")

_operations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "update", "delete", "reprice", "abort"]),
        st.integers(min_value=1, max_value=10),
    ),
    min_size=1,
    max_size=6,
)


def full_view_analyzer() -> OpDeltaAnalyzer:
    """Everything is warehouse-relevant (OP_ONLY capture, no pruning)."""
    schema = parts_schema()
    view = ViewDefinition(
        name="parts_catalog",
        base_table="parts",
        columns=schema.column_names,
        predicate=None,
        key_column="part_id",
        base_columns=schema.column_names,
    )
    return OpDeltaAnalyzer(
        views=[view],
        mirrored_tables={"parts"},
        key_columns={"parts": "part_id"},
        table_columns={"parts": schema.column_names},
    )


def narrow_view_analyzer() -> OpDeltaAnalyzer:
    """Only (part_id, status) is of interest: other updates get pruned."""
    schema = parts_schema()
    view = ViewDefinition(
        name="status_board",
        base_table="parts",
        columns=("part_id", "status"),
        predicate=None,
        key_column="part_id",
        base_columns=schema.column_names,
    )
    return OpDeltaAnalyzer(
        views=[view],
        key_columns={"parts": "part_id"},
        table_columns={"parts": schema.column_names},
    )


def run_source_operations(workload, operations):
    session = workload.session
    for kind, size in operations:
        if kind == "insert":
            workload.run_insert(size)
        elif kind == "update":
            workload.run_update(size, assignment=f"quantity = {size}")
        elif kind == "delete":
            if workload.live_rows > size:
                workload.run_delete(size, top_up=False)
        elif kind == "reprice":
            workload.run_update(size, assignment="price = price * 1.5")
        else:  # aborted transaction: must settle in lineage, not dangle
            session.execute("BEGIN")
            session.execute(
                f"UPDATE parts SET status = 'ghost' WHERE part_ref < {size}"
            )
            session.execute("ROLLBACK")


def run_pipeline(variant, operations):
    source = Database(f"prop-{variant}")
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(40)
    initial = [v for _r, v in source.table("parts").scan()]
    analyzer = (
        narrow_view_analyzer() if variant == "pruned" else full_view_analyzer()
    )
    recorder = PipelineRecorder(clock=source.clock)
    with observe_pipeline(recorder):
        store = FileLogStore(source)
        capture = OpDeltaCapture(
            workload.session,
            store,
            tables={"parts"},
            source=f"prop-{variant}",
        )
        capture.attach()
        run_source_operations(workload, operations)
        capture.detach()
        groups = store.drain()

        warehouse = Warehouse(f"prop-wh-{variant}", clock=source.clock)
        warehouse.create_mirror(parts_schema())
        warehouse.initial_load_rows("parts", initial)
        integrator = OpDeltaIntegrator(
            warehouse.database.internal_session(), analyzer=analyzer
        )
        components = None
        if variant == "plain":
            FileShipper(NetworkModel(source.clock)).ship_op_deltas(groups)
            integrator.integrate(groups)
        elif variant == "pruned":
            surviving = list(prune_window(analyzer, groups))
            FileShipper(NetworkModel(source.clock)).ship_op_deltas(surviving)
            integrator.integrate(surviving)
        else:
            window = groups
            if variant == "compacted":
                window, _report = Coalescer(
                    analyzer=analyzer, clock=source.clock
                ).compact_window(groups)
            queue = PersistentQueue(source.clock, name=f"prop-{variant}")
            enqueue_op_deltas(queue, window)
            received = queue.receive_window(limit=len(window) + 1)
            graph = analyzer.conflict_graph([p for _id, p in received])
            integrator.integrate_batched(
                [p for _id, p in received], graph=graph
            )
            queue.ack_window(d for d, _p in received)
            components = graph.components
    return recorder, components


@given(st.sampled_from(VARIANTS), _operations)
@settings(max_examples=20, deadline=None)
def test_conservation_holds_for_every_pipeline_shape(variant, operations):
    recorder, components = run_pipeline(variant, operations)
    report = PipelineAuditor(recorder).audit(conflict_components=components)
    conservation = report.conservation
    assert report.conservation_holds, conservation
    assert conservation["in_flight"] == 0
    assert conservation["captured"] == (
        conservation["applied"]
        + conservation["pruned"]
        + conservation["absorbed"]
        + conservation["rejected"]
    )
    assert report.verdict == "CLEAN", [f.render() for f in report.findings]
    # The watermarks agree with the balance sheet: everything settled.
    for watermark in recorder.sources.values():
        assert watermark.in_flight == 0
        assert watermark.low_seq == watermark.high_seq


@given(st.sampled_from(VARIANTS), _operations)
@settings(max_examples=10, deadline=None)
def test_catalog_conservation_query_matches_the_auditor(variant, operations):
    """The sys.events GROUP BY fold is the auditor, bit for bit.

    Whatever shape the pipeline takes, folding ``SELECT kind, COUNT(*)
    FROM sys.events GROUP BY kind`` into conservation buckets must
    reproduce ``PipelineRecorder.conservation()`` exactly — the SQL
    surface and the auditor count the same events, not approximations
    of each other.
    """
    from repro.bench.introspect import _conservation_from_sql
    from repro.obs.introspect import StoreBundle, SystemCatalog

    recorder, _components = run_pipeline(variant, operations)
    catalog = SystemCatalog(StoreBundle(recorder=recorder))
    assert _conservation_from_sql(catalog) == recorder.conservation()
