"""Tests for statement transformation rules and warehouse application."""

import pytest

from repro.core import (
    FileLogStore,
    OpDeltaCapture,
    StatementTransformer,
    TableMapping,
)
from repro.engine import Column, Database, TableSchema
from repro.engine.table import InsertMode
from repro.errors import OpDeltaError, WarehouseError
from repro.sql.parser import parse
from repro.warehouse import OpDeltaIntegrator
from repro.workloads import OltpWorkload, parts_schema, strip_timestamp


class TestTransformer:
    def test_identity_keeps_statement(self):
        transformer = StatementTransformer()
        stmt = parse("UPDATE parts SET status = 'x' WHERE part_id = 1")
        assert transformer.transform(stmt).to_sql() == stmt.to_sql()

    def test_table_rename(self):
        transformer = StatementTransformer(
            {"parts": TableMapping("parts", "dw_parts")}
        )
        stmt = transformer.transform(parse("DELETE FROM parts WHERE part_id = 1"))
        assert stmt.table == "dw_parts"

    def test_column_rename_in_where_and_set(self):
        mapping = TableMapping(
            "parts", "dw_parts",
            column_map={"status": "part_status", "part_id": "pk"},
        )
        transformer = StatementTransformer({"parts": mapping})
        stmt = transformer.transform(
            parse("UPDATE parts SET status = 'x' WHERE part_id = 1")
        )
        rendered = stmt.to_sql()
        assert "part_status" in rendered and "pk" in rendered
        assert "status =" not in rendered.replace("part_status", "")

    def test_positional_insert_projected(self):
        mapping = TableMapping(
            "parts", "dw_parts",
            column_map={"part_id": "pk", "status": "part_status"},
            source_columns=parts_schema().column_names,
        )
        transformer = StatementTransformer({"parts": mapping})
        stmt = transformer.transform(
            parse(
                "INSERT INTO parts VALUES (1, 1, 'PN', 'd', 'new', 2, 3.0, "
                "NULL, 0)"
            )
        )
        assert stmt.table == "dw_parts"
        assert stmt.columns == ("pk", "part_status")
        assert len(stmt.rows[0]) == 2

    def test_assignment_to_dropped_column_vanishes(self):
        mapping = TableMapping(
            "parts", "dw_parts",
            column_map={"part_id": "pk", "status": "part_status"},
            source_columns=parts_schema().column_names,
        )
        transformer = StatementTransformer({"parts": mapping})
        stmt = transformer.transform(
            parse("UPDATE parts SET status = 'x', quantity = 5 WHERE part_id = 1")
        )
        assert [a.column for a in stmt.assignments] == ["part_status"]

    def test_all_assignments_dropped_is_an_error(self):
        mapping = TableMapping(
            "parts", "dw_parts", column_map={"part_id": "pk"},
            source_columns=parts_schema().column_names,
        )
        transformer = StatementTransformer({"parts": mapping})
        with pytest.raises(OpDeltaError, match="nothing to apply"):
            transformer.transform(parse("UPDATE parts SET quantity = 5"))

    def test_predicate_on_dropped_column_is_an_error(self):
        mapping = TableMapping(
            "parts", "dw_parts", column_map={"part_id": "pk"},
            source_columns=parts_schema().column_names,
        )
        transformer = StatementTransformer({"parts": mapping})
        with pytest.raises(OpDeltaError, match="dropped"):
            transformer.transform(parse("DELETE FROM parts WHERE quantity = 5"))

    def test_insert_select_rejected(self):
        transformer = StatementTransformer()
        with pytest.raises(OpDeltaError, match="SELECT"):
            transformer.transform(parse("INSERT INTO parts SELECT * FROM other"))

    def test_select_rejected(self):
        with pytest.raises(OpDeltaError):
            StatementTransformer().transform(parse("SELECT 1"))

    def test_function_arguments_are_mapped_like_any_other_reference(self):
        mapping = TableMapping(
            "parts", "dw_parts",
            column_map={"description": "descr", "part_no": "pn", "quantity": "qty"},
        )
        transformer = StatementTransformer({"parts": mapping})
        stmt = transformer.transform(
            parse(
                "UPDATE parts SET description = UPPER(description), "
                "quantity = ABS(quantity - 100) WHERE LENGTH(part_no) > 5"
            )
        )
        assert stmt.to_sql() == (
            "UPDATE dw_parts SET descr = UPPER(descr), qty = ABS((qty - 100)) "
            "WHERE (LENGTH(pn) > 5)"
        )

    def test_dropped_column_inside_a_function_argument_is_an_error(self):
        mapping = TableMapping("parts", "dw_parts", column_map={"part_id": "pk"})
        transformer = StatementTransformer({"parts": mapping})
        with pytest.raises(OpDeltaError, match=r"parts\.part_no is dropped"):
            transformer.transform(
                parse("DELETE FROM parts WHERE part_id > 3 AND LENGTH(part_no) > 5")
            )

    @pytest.mark.parametrize("call", ["NOW()", "RANDOM()"])
    def test_unpinned_volatile_call_is_refused_by_name(self, call):
        """Mapped through, it would be evaluated on the warehouse's clock."""
        refusal = rf"{call[:-2]}\(\).*pin it or fall back"
        with pytest.raises(OpDeltaError, match=refusal):
            StatementTransformer().transform(
                parse(f"UPDATE parts SET price = ABS({call}) WHERE part_id = 1")
            )


class TestApplier:
    @pytest.fixture
    def pipeline(self):
        source = Database("apply-src")
        workload = OltpWorkload(source)
        workload.create_table()
        workload.populate(150)
        store = FileLogStore(source)
        OpDeltaCapture(workload.session, store, tables={"parts"}).attach()

        warehouse = Database("apply-wh", clock=source.clock)
        warehouse.create_table(parts_schema())
        from repro.engine.table import InsertMode

        txn = warehouse.begin()
        for _rid, values in source.table("parts").scan():
            warehouse.table("parts").insert(txn, values, mode=InsertMode.BULK_INTERNAL)
        warehouse.commit(txn)
        return source, workload, store, warehouse

    def test_replay_converges_mirror(self, pipeline):
        source, workload, store, warehouse = pipeline
        workload.run_update(20)
        workload.run_insert(5)
        workload.run_delete(10, top_up=False)
        integrator = OpDeltaIntegrator(warehouse.internal_session())
        report = integrator.integrate(store.drain())
        assert report.transactions == 3
        assert len(report.per_transaction_ms) == 3
        schema = parts_schema()
        assert strip_timestamp(
            schema, (v for _r, v in source.table("parts").scan())
        ) == strip_timestamp(
            schema, (v for _r, v in warehouse.table("parts").scan())
        )

    FUNCTION_STATEMENTS = (
        "UPDATE parts SET description = UPPER(description) WHERE part_ref < 40",
        "UPDATE parts SET quantity = ABS(quantity - 100) WHERE part_ref >= 20",
        "UPDATE parts SET status = 'long' WHERE LENGTH(part_no) > 5",
        "DELETE FROM parts WHERE LENGTH(description) > 5 AND part_ref < 10",
    )

    def test_statements_calling_scalar_functions_replay(self, pipeline):
        source, workload, store, warehouse = pipeline
        for statement in self.FUNCTION_STATEMENTS:
            assert workload.session.execute(statement).rows_affected > 0
        report = OpDeltaIntegrator(warehouse.internal_session()).integrate(
            store.drain()
        )
        assert report.statements_issued == len(self.FUNCTION_STATEMENTS)
        schema = parts_schema()
        assert strip_timestamp(
            schema, source.table("parts").scan_values()
        ) == strip_timestamp(schema, warehouse.table("parts").scan_values())

    def test_statements_calling_scalar_functions_replay_through_a_column_map(self):
        source = Database("fn-src")
        workload = OltpWorkload(source)
        workload.create_table()
        workload.populate(150)
        store = FileLogStore(source)
        OpDeltaCapture(workload.session, store, tables={"parts"}).attach()
        schema = parts_schema()
        renamed = {"description": "descr", "quantity": "qty"}
        warehouse = Database("fn-wh", clock=source.clock)
        mirror = warehouse.create_table(
            TableSchema(
                "dw_parts",
                [
                    Column(renamed.get(c.name, c.name), c.datatype, c.nullable)
                    for c in schema.columns
                ],
                primary_key="part_id",
            )
        )
        txn = warehouse.begin()
        for values in source.table("parts").scan_values():
            mirror.insert(txn, values, mode=InsertMode.BULK_INTERNAL)
        warehouse.commit(txn)
        for statement in self.FUNCTION_STATEMENTS:
            workload.session.execute(statement)
        mapping = TableMapping(
            "parts", "dw_parts",
            column_map={c: renamed.get(c, c) for c in schema.column_names},
        )
        OpDeltaIntegrator(
            warehouse.internal_session(), StatementTransformer({"parts": mapping})
        ).integrate(store.drain())
        assert strip_timestamp(
            schema, source.table("parts").scan_values()
        ) == strip_timestamp(schema, mirror.scan_values())

    def test_transaction_boundaries_preserved(self, pipeline):
        source, workload, store, warehouse = pipeline
        session = workload.session
        session.execute("BEGIN")
        session.execute("UPDATE parts SET status = 'a' WHERE part_ref < 3")
        session.execute("UPDATE parts SET status = 'b' WHERE part_ref >= 3 AND part_ref < 6")
        session.execute("COMMIT")
        groups = store.drain()
        assert len(groups) == 1
        integrator = OpDeltaIntegrator(warehouse.internal_session())
        commits_before = warehouse.metrics.value("engine.txn.commit", db=warehouse.name)
        integrator.integrate(groups)
        # One source txn -> exactly one warehouse txn.
        assert warehouse.metrics.value("engine.txn.commit", db=warehouse.name) == commits_before + 1

    def test_failed_group_rolls_back_atomically(self, pipeline):
        source, workload, store, warehouse = pipeline
        session = workload.session
        # Capture a good transaction, then poison its group with an
        # operation that collides at the warehouse (duplicate PK 0).
        session.execute("BEGIN")
        session.execute("UPDATE parts SET status = 'ok' WHERE part_ref < 3")
        session.execute("COMMIT")
        groups = store.drain()
        assert len(groups) == 1
        poisoned = groups[0]
        from repro.core.opdelta import OpDelta, OpKind

        poisoned.operations.append(
            OpDelta(
                "INSERT INTO parts VALUES (0, 9, 'PN', 'd', 'new', 1, 1.0, "
                "NULL, 0)",
                "parts", OpKind.INSERT, poisoned.txn_id, 99, 0.0,
            )
        )
        before = sorted(v for _r, v in warehouse.table("parts").scan())
        integrator = OpDeltaIntegrator(warehouse.internal_session())
        with pytest.raises(WarehouseError):
            integrator.integrate([poisoned])
        after = sorted(v for _r, v in warehouse.table("parts").scan())
        assert before == after  # nothing partially applied

    def test_empty_group_is_noop(self, pipeline):
        _source, _workload, _store, warehouse = pipeline
        from repro.core.opdelta import OpDeltaTransaction

        before = sorted(v for _r, v in warehouse.table("parts").scan())
        integrator = OpDeltaIntegrator(warehouse.internal_session())
        report = integrator.integrate([OpDeltaTransaction(1)])
        assert report.transactions == 1
        assert report.statements_issued == 0 and report.rows_affected == 0
        assert before == sorted(v for _r, v in warehouse.table("parts").scan())
