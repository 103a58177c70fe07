"""View-relevance pruning and the analyzer's downstream wiring.

Covers the verdicts themselves, capture-time annotation, the integrator's
skip/pin/fallback paths, and transport-boundary pruning.
"""

import functools

import pytest

from repro.analysis import OpDeltaAnalyzer, extract_footprint
from repro.analysis.relevance import settle_relevance, shape_relevance
from repro.core import FileLogStore, OpDeltaCapture
from repro.core.opdelta import OpDelta, OpDeltaTransaction, OpKind
from repro.core.selfmaint import ViewDefinition
from repro.engine import Database
from repro.errors import WarehouseError
from repro.sql.parser import parse
from repro.warehouse import OpDeltaIntegrator, Warehouse
from repro.warehouse.aggregates import AggregateSpec, AggregateViewDefinition
from repro.workloads import OltpWorkload, parts_schema, strip_timestamp

from .pruning import prune_transaction, prune_window

ACTIVE = ViewDefinition(
    name="active_parts",
    base_table="parts",
    columns=("part_id", "part_ref", "status", "quantity"),
    predicate="status = 'active'",
    key_column="part_id",
)


def fp(sql, table_columns=None):
    return extract_footprint(parse(sql), table_columns)


#: The same selection as ``ACTIVE`` — and the same name, so the inherited
#: assertions read alike — kept as a GROUP BY view.
ACTIVE_TOTALS = AggregateViewDefinition(
    name="active_parts",
    base_table="parts",
    group_by=("status",),
    aggregates=(AggregateSpec("SUM", "quantity"),),
    predicate="status = 'active'",
)


def verdict(sql, views=(ACTIVE,), mirrored=(), aggregate_views=()):
    footprint = fp(sql)
    return settle_relevance(
        shape_relevance(footprint, views, mirrored, aggregate_views), footprint
    )


class TestStatementRelevance:
    """Judged against the SPJ view ``ACTIVE``; ``TestAggregateRelevance``
    re-runs every case against the GROUP BY view of the same selection."""

    @pytest.fixture
    def verdict(self):
        return verdict

    def test_other_table_is_pruned(self, verdict):
        assert verdict("UPDATE audit_log SET note = 'x' WHERE event_id = 1").pruned

    def test_mirrored_table_is_never_pruned(self, verdict):
        v = verdict(
            "UPDATE audit_log SET note = 'x' WHERE event_id = 1",
            mirrored=("audit_log",),
        )
        assert not v.pruned
        assert v.mirror_relevant

    def test_update_of_uninteresting_column_pruned(self, verdict):
        # 'description' is neither projected nor selected on.
        v = verdict("UPDATE parts SET description = 'new' WHERE part_id = 1")
        assert v.pruned

    def test_update_of_projected_column_relevant(self, verdict):
        v = verdict("UPDATE parts SET quantity = 5 WHERE part_id = 1")
        assert v.relevant_views == ("active_parts",)

    def test_update_of_predicate_column_relevant(self, verdict):
        # status drives view membership even though the write may leave it
        # outside the view.
        assert not verdict("UPDATE parts SET status = 'retired'").pruned

    def test_update_outside_view_range_pruned(self, verdict):
        # Rows with status 'scrapped' are not in the view, and the literal
        # assignment cannot move them in.
        v = verdict(
            "UPDATE parts SET quantity = 0 WHERE status = 'scrapped'"
        )
        assert v.pruned

    def test_update_that_could_enter_range_relevant(self, verdict):
        v = verdict(
            "UPDATE parts SET status = 'active' WHERE status = 'scrapped'"
        )
        assert not v.pruned

    def test_delete_outside_view_range_pruned(self, verdict):
        assert verdict("DELETE FROM parts WHERE status = 'scrapped'").pruned

    def test_delete_possibly_inside_relevant(self, verdict):
        assert not verdict("DELETE FROM parts WHERE part_id = 3").pruned

    def test_insert_outside_view_predicate_pruned(self, verdict):
        v = verdict(
            "INSERT INTO parts (part_id, status) VALUES (99, 'scrapped')"
        )
        assert v.pruned

    def test_insert_matching_view_predicate_relevant(self, verdict):
        v = verdict(
            "INSERT INTO parts (part_id, status) VALUES (99, 'active')"
        )
        assert not v.pruned

    def test_no_views_no_mirror_everything_pruned(self, verdict):
        assert verdict(
            "UPDATE parts SET status = 'x'", views=(), aggregate_views=()
        ).pruned


class TestAggregateRelevance(TestStatementRelevance):
    @pytest.fixture
    def verdict(self):
        return functools.partial(
            verdict, views=(), aggregate_views=(ACTIVE_TOTALS,)
        )

    def test_update_of_a_column_the_groups_do_not_depend_on_pruned(self, verdict):
        # part_ref is not grouped on, aggregated or selected on — though the
        # SPJ view projects it, so there the same statement is relevant.
        sql = "UPDATE parts SET part_ref = 5 WHERE part_id = 1"
        assert verdict(sql).pruned
        assert not verdict(sql, views=(ACTIVE,), aggregate_views=()).pruned

    def test_update_of_aggregated_input_relevant(self, verdict):
        v = verdict("UPDATE parts SET quantity = quantity + 1")
        assert v.relevant_views == ("active_parts",)


class TestAnalyzerFacade:
    def make(self):
        return OpDeltaAnalyzer(
            views=(ACTIVE,),
            mirrored_tables=("parts",),
            key_columns={"parts": "part_id"},
        )

    def test_record_shape(self):
        record = self.make().analyze_statement(
            parse("UPDATE parts SET quantity = 5 WHERE part_id = 1")
        )
        assert record.safe and not record.pinnable and not record.pruned
        assert record.idempotent
        d = record.to_dict()
        assert d["kind"] == "UPDATE" and d["writes"] == ["quantity"]

    def test_prune_transaction_variants(self):
        analyzer = OpDeltaAnalyzer(views=(ACTIVE,))  # no mirrors
        keep = _op(1, 0, "UPDATE parts SET quantity = 1 WHERE part_id = 1")
        drop = _op(1, 1, "UPDATE audit_log SET note = 'x' WHERE event_id = 1")
        full = OpDeltaTransaction(txn_id=1, operations=[keep, drop])
        pruned = prune_transaction(analyzer, full)
        assert [op.statement_text for op in pruned.operations] == [
            keep.statement_text
        ]
        untouched = OpDeltaTransaction(txn_id=2, operations=[keep])
        assert prune_transaction(analyzer, untouched) is untouched
        empty = OpDeltaTransaction(txn_id=3, operations=[drop])
        assert prune_transaction(analyzer, empty) is None


def _op(txn_id, seq, sql, before_image=None, captured_at=1000.0):
    parsed = parse(sql)
    kind = {
        "InsertStmt": OpKind.INSERT,
        "UpdateStmt": OpKind.UPDATE,
        "DeleteStmt": OpKind.DELETE,
    }[type(parsed).__name__]
    return OpDelta(
        statement_text=sql,
        table=parsed.table,
        kind=kind,
        txn_id=txn_id,
        sequence=seq,
        captured_at=captured_at,
        before_image=before_image,
    )


class TestCaptureAnnotation:
    def test_ops_carry_analysis_records(self):
        source = Database("annot-src")
        workload = OltpWorkload(source)
        workload.create_table()
        workload.populate(100)
        analyzer = OpDeltaAnalyzer(
            views=(ACTIVE,), mirrored_tables=("parts",)
        )
        store = FileLogStore(source)
        capture = OpDeltaCapture(
            workload.session, store, tables={"parts"}, analyzer=analyzer
        )
        capture.attach()
        workload.run_update(10)
        groups = store.drain()
        ops = [op for group in groups for op in group.operations]
        assert ops
        assert all(op.analysis is not None for op in ops)
        assert all(op.analysis.footprint.table == "parts" for op in ops)


@pytest.fixture
def mirror_pair():
    """A populated source and an identically-loaded warehouse mirror."""
    source = Database("rel-src")
    workload = OltpWorkload(source)
    workload.create_table()
    workload.populate(200)
    warehouse = Warehouse(clock=source.clock)
    warehouse.create_mirror(parts_schema())
    warehouse.initial_load_rows(
        "parts", (v for _r, v in source.table("parts").scan())
    )
    return source, workload, warehouse


def logical(database):
    return strip_timestamp(
        parts_schema(), (v for _r, v in database.table("parts").scan())
    )


class TestIntegratorAnalysisPaths:
    def test_pruned_statements_are_skipped(self, mirror_pair):
        _source, _workload, warehouse = mirror_pair
        analyzer = OpDeltaAnalyzer(views=(ACTIVE,))  # audit_log irrelevant
        groups = [
            OpDeltaTransaction(
                txn_id=1,
                operations=[
                    _op(
                        1,
                        0,
                        "UPDATE audit_log SET note = 'x' WHERE event_id = 1",
                    )
                ],
            )
        ]
        report = OpDeltaIntegrator(
            warehouse.database.internal_session(), analyzer=analyzer
        ).integrate(groups)
        assert report.statements_pruned == 1
        assert report.statements_issued == 0

    def test_time_dependent_statement_is_pinned(self, mirror_pair):
        source, _workload, warehouse = mirror_pair
        analyzer = OpDeltaAnalyzer(mirrored_tables=("parts",))
        groups = [
            OpDeltaTransaction(
                txn_id=1,
                operations=[
                    _op(
                        1,
                        0,
                        "UPDATE parts SET price = NOW() WHERE part_id = 1",
                        captured_at=777.0,
                    )
                ],
            )
        ]
        report = OpDeltaIntegrator(
            warehouse.database.internal_session(), analyzer=analyzer
        ).integrate(groups)
        assert report.statements_pinned == 1
        session = warehouse.database.internal_session()
        rows = session.execute("SELECT price FROM parts WHERE part_id = 1").rows
        assert rows[0][0] == 777.0
        # The warehouse clock did not supply that value.
        assert source.clock.now != 777.0

    def test_volatile_delete_falls_back_to_before_image(self, mirror_pair):
        source, _workload, warehouse = mirror_pair
        analyzer = OpDeltaAnalyzer(mirrored_tables=("parts",))
        doomed = [
            row for _r, row in source.table("parts").scan()
        ][:2]
        groups = [
            OpDeltaTransaction(
                txn_id=1,
                operations=[
                    _op(
                        1,
                        0,
                        "DELETE FROM parts WHERE quantity < RANDOM()",
                        before_image=doomed,
                    )
                ],
            )
        ]
        report = OpDeltaIntegrator(
            warehouse.database.internal_session(), analyzer=analyzer
        ).integrate(groups)
        assert report.fallback_images_applied == 1
        assert report.rows_affected == 2
        remaining = {
            row[0] for _r, row in warehouse.database.table("parts").scan()
        }
        assert not remaining & {row[0] for row in doomed}

    def test_volatile_delete_with_empty_image_is_noop(self, mirror_pair):
        _source, _workload, warehouse = mirror_pair
        analyzer = OpDeltaAnalyzer(mirrored_tables=("parts",))
        groups = [
            OpDeltaTransaction(
                txn_id=1,
                operations=[
                    _op(
                        1,
                        0,
                        "DELETE FROM parts WHERE quantity < RANDOM()",
                        before_image=[],
                    )
                ],
            )
        ]
        report = OpDeltaIntegrator(
            warehouse.database.internal_session(), analyzer=analyzer
        ).integrate(groups)
        assert report.fallback_images_applied == 1
        assert report.statements_issued == 0

    def test_volatile_update_is_rejected(self, mirror_pair):
        _source, _workload, warehouse = mirror_pair
        analyzer = OpDeltaAnalyzer(mirrored_tables=("parts",))
        groups = [
            OpDeltaTransaction(
                txn_id=1,
                operations=[
                    _op(1, 0, "UPDATE parts SET price = RANDOM() WHERE part_id = 1")
                ],
            )
        ]
        with pytest.raises(WarehouseError, match="hybrid"):
            OpDeltaIntegrator(
                warehouse.database.internal_session(), analyzer=analyzer
            ).integrate(groups)

    def test_without_analyzer_behaviour_is_unchanged(self, mirror_pair):
        source, workload, warehouse = mirror_pair
        store = FileLogStore(source)
        OpDeltaCapture(workload.session, store, tables={"parts"}).attach()
        workload.run_update(20)
        report = OpDeltaIntegrator(
            warehouse.database.internal_session()
        ).integrate(store.drain())
        assert report.statements_pruned == 0
        assert report.statements_pinned == 0
        assert logical(warehouse.database) == logical(source)


class TestTransportPruning:
    def make_groups(self):
        return [
            OpDeltaTransaction(
                txn_id=1,
                operations=[
                    _op(1, 0, "UPDATE parts SET quantity = 1 WHERE part_id = 1"),
                    _op(1, 1, "UPDATE audit_log SET note = 'x' WHERE event_id = 1"),
                ],
            ),
            OpDeltaTransaction(
                txn_id=2,
                operations=[
                    _op(2, 0, "UPDATE audit_log SET note = 'y' WHERE event_id = 2"),
                ],
            ),
        ]

    def test_enqueue_drops_pruned_statements_and_empty_txns(self):
        from repro.transport import PersistentQueue, enqueue_op_deltas
        from repro.clock import VirtualClock

        analyzer = OpDeltaAnalyzer(views=(ACTIVE,))
        queue = PersistentQueue(VirtualClock())
        count = enqueue_op_deltas(queue, prune_window(analyzer, self.make_groups()))
        assert count == 1  # txn 2 vanished entirely
        delivery = queue.receive()
        assert delivery is not None
        _delivery_id, group = delivery
        assert len(group.operations) == 1
        assert group.operations[0].table == "parts"

    def test_shipper_pays_only_for_surviving_bytes(self):
        from repro.clock import VirtualClock
        from repro.transport import FileShipper, NetworkModel

        analyzer = OpDeltaAnalyzer(views=(ACTIVE,))
        clock = VirtualClock()
        groups = self.make_groups()
        full = FileShipper(NetworkModel(clock)).ship_op_deltas(groups)
        pruned = FileShipper(NetworkModel(clock)).ship_op_deltas(
            prune_window(analyzer, groups)
        )
        assert pruned < full
