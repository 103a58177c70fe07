"""Statement templates: binding, what a shape decides, and when it stops
holding (``repro.sql.templates``, ``repro.sql.parser.TEMPLATES``)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import OpDeltaAnalyzer, conflict
from repro.analysis.safety import commutes
from repro.analysis.rwsets import extract_footprint
from repro.columnar import CompileBarrier
from repro.columnar.kernels import KernelCache
from repro.core.opdelta import OpDelta, OpDeltaTransaction, OpKind
from repro.core.selfmaint import ViewDefinition
from repro.engine import Column, Database, TableSchema
from repro.engine.types import FLOAT, INTEGER, char
from repro.errors import SqlAnalysisError, SqlSyntaxError
from repro.extraction.deltas import ChangeKind, DeltaBatch, DeltaRecord
from repro.obs.introspect import StoreBundle, SystemCatalog
from repro.scope import Scope
from repro.semantics import SchemaCatalog, SemanticChecker, ViewMaintenancePlanner
from repro.sql import ast_nodes as ast
from repro.sql.executor import Executor
from repro.sql.expressions import split_conjuncts
from repro.sql.parser import TEMPLATES, TemplateTable, parse
from repro.warehouse import OpDeltaIntegrator, ValueDeltaIntegrator, Warehouse
from repro.workloads import PartsGenerator, parts_schema, strip_timestamp


def items_schema(*column_names: str) -> TableSchema:
    kinds = {"k": INTEGER, "n": INTEGER, "s": char(8), "f": FLOAT}
    return TableSchema(
        "items",
        [Column(name, kinds[name], nullable=name != "k") for name in column_names],
        primary_key="k",
    )


def items_db(name: str = "templates", columns=("k", "n", "s")) -> Database:
    database = Database(name)
    table = database.create_table(items_schema(*columns))
    txn = database.begin()
    for k in range(20):
        row = {"k": k, "n": k % 5, "s": f"s{k}", "f": k / 2}
        table.insert(txn, tuple(row[c] for c in columns))
    database.commit(txn)
    return database


class TestBinding:
    def test_a_bound_statement_is_the_statement_of_its_own_text(self):
        table = TemplateTable()
        first = table.parse("UPDATE items SET s = 'a' WHERE k = 1")
        text = "UPDATE items SET s = 'it''s longer' WHERE k = 12345"
        bound = table.parse(text)
        assert (table.hits, table.misses, len(table)) == (1, 1, 1)
        assert bound.assignments[0].expr.value == "it's longer"
        assert bound.where.right.value == 12345
        assert bound != first
        # Positions are those of the text given, not of the one parsed.
        assert bound.assignments[0].expr.pos == text.index("'it")
        assert bound.where.left.pos == text.index("k =")
        assert bound.where.right.pos == text.index("12345")
        assert bound.binding.template is first.binding.template

    def test_like_patterns_limits_and_type_arguments_are_slots_too(self):
        table = TemplateTable()
        table.parse("SELECT k FROM items WHERE s LIKE 'a%' LIMIT 3")
        again = table.parse("SELECT k FROM items WHERE s LIKE '%zz' LIMIT 11")
        assert (again.where.pattern, again.limit) == ("%zz", 11)
        table.parse("CREATE TABLE a (x CHAR(4))")
        wider = table.parse("CREATE TABLE a (x CHAR(40))")
        assert wider.columns[0].type_arg == 40
        assert table.misses == 2

    def test_the_kind_of_a_literal_is_part_of_the_shape(self):
        table = TemplateTable()
        for text in (
            "DELETE FROM items WHERE k = 5",
            "DELETE FROM items WHERE k = '5'",
            "DELETE FROM items WHERE k = 5.0",
            "DELETE FROM items WHERE k = NULL",
        ):
            table.parse(text)
        assert len(table) == 4

    def test_a_text_that_does_not_parse_leaves_no_template(self):
        table = TemplateTable()
        for _ in range(2):
            with pytest.raises(SqlSyntaxError) as caught:
                table.parse("UPDATE items SET WHERE k = 1")
            assert "position 17" in str(caught.value)
        assert len(table) == 0

    @pytest.mark.parametrize("conjuncts", [330, 1_000])
    def test_a_where_of_many_conjuncts_binds_and_runs(self, conjuncts):
        # ANDed conjuncts nest down their left operands, one level each:
        # about 330 once overflowed the stack while the template was built.
        table, database = TemplateTable(), items_db()

        def text(bounds):
            where = " AND ".join(f"n >= {bound}" for bound in bounds)
            return f"SELECT COUNT(*) FROM items WHERE k < 12 AND {where}"

        first = table.parse(text([0] * conjuncts))
        given = text([3] + [1] * (conjuncts - 1))
        bound = table.parse(given)
        assert (table.hits, table.misses) == (1, 1)
        conjunct = split_conjuncts(bound.where)
        assert len(conjunct) == conjuncts + 1
        assert [c.right.value for c in conjunct[:4]] == [12, 3, 1, 1]
        # Positions are those of the text given.
        assert conjunct[-1].right.pos == len(given) - 1
        assert conjunct[2].left.pos == given.index("n >= 1 ")
        assert bound.binding.template is first.binding.template
        assert Executor(database).execute(bound, None).rows == [(4,)]

    def test_a_where_of_many_conjuncts_renders(self):
        # The chain nests down its left operands, a thousand levels deep:
        # rendered in a loop down them, as the template binds it.
        where = " AND ".join(f"n >= {bound}" for bound in range(1_000))
        statement = TemplateTable().parse(f"SELECT COUNT(*) FROM items WHERE {where}")
        rendered = "(" * 999 + "(n >= 0)" + "".join(
            f" AND (n >= {bound}))" for bound in range(1, 1_000)
        )
        assert statement.where.to_sql() == rendered
        assert statement.to_sql() == f"SELECT COUNT(*) FROM items WHERE {rendered}"

    def test_a_rewritten_statement_has_no_template(self):
        statement = parse("DELETE FROM items WHERE k = 5")
        assert statement.binding is not None
        assert dataclasses.replace(statement, table="other").binding is None
        assert ast.DeleteStmt("items", statement.where).binding is None

    def test_a_derived_template_binds_the_rewritten_statement(self):
        statement = parse("DELETE FROM items WHERE k = 5")
        scope = Scope()
        calls = []

        def rewrite(shape):
            calls.append(shape)
            return ast.DeleteStmt("mirror", shape.where)

        for text, key in (("DELETE FROM items WHERE k = 5", 5),
                          ("DELETE FROM items WHERE k = 77", 77)):
            binding = parse(text).binding
            template = binding.template
            derived = template.fact(
                scope, "rewrite", lambda: template.rewritten(rewrite)
            ).bind(binding.values, binding.shifts)
            assert derived == ast.DeleteStmt(
                "mirror", ast.BinaryOp("=", ast.ColumnRef("k"), ast.Literal(key))
            )
            assert derived.binding.template is not statement.binding.template
        assert len(calls) == 1


class TestShapeFacts:
    def test_footprint_keeps_all_but_the_row_range(self):
        TEMPLATES.clear()
        columns = {"items": ("k", "n", "s")}
        one = extract_footprint(parse("UPDATE items SET n = 1 WHERE k = 3"), columns)
        two = extract_footprint(parse("UPDATE items SET n = 9 WHERE k = 44"), columns)
        assert (one.reads, one.writes, one.where_columns) == (
            two.reads, two.writes, two.where_columns
        )
        assert one.row_range.get("k").admits(3) and not one.row_range.get("k").admits(44)
        assert two.row_range.get("k").admits(44) and not two.row_range.get("k").admits(3)
        assert two.statement.assignments[0].expr.value == 9

    def test_a_typed_error_is_raised_for_every_statement_of_its_shape(self):
        database = items_db()
        session = database.internal_session()
        for key in ("5", "17", "x"):
            with pytest.raises(SqlAnalysisError, match="cannot compare int with str"):
                session.execute(f"DELETE FROM items WHERE k = '{key}'")
        assert session.execute("DELETE FROM items WHERE k = 5").rows_affected == 1
        assert database.table("items").num_rows == 19


class TestInvalidation:
    """A fact that read a schema or an index list dies with what it read."""

    def test_create_index_is_seen_by_a_shape_planned_as_a_scan(self):
        database = items_db()
        session = database.internal_session()
        assert session.execute("DELETE FROM items WHERE n = 1").plan == "delete:scan"
        session.execute("CREATE INDEX ix_n ON items (n)")
        found = session.execute("DELETE FROM items WHERE n = 3")
        assert (found.plan, found.rows_affected) == ("delete:index(ix_n)", 4)
        assert session.execute("SELECT COUNT(*) FROM items").scalar() == 12

    def test_truncate_replaces_the_indexes_a_plan_holds(self):
        database = items_db()
        session = database.internal_session()
        assert session.execute("UPDATE items SET n = 9 WHERE k = 4").rows_affected == 1
        session.execute("TRUNCATE TABLE items")
        session.execute("INSERT INTO items VALUES (4, 0, 'new')")
        # The old key index no longer exists: a plan that kept it finds nothing.
        found = session.execute("UPDATE items SET n = 7 WHERE k = 4")
        assert (found.plan, found.rows_affected) == ("update:index(pk_items)", 1)
        assert session.execute("SELECT n, s FROM items").rows == [(7, "new")]

    def test_drop_and_create_table_under_the_same_name(self):
        database = items_db()
        session = database.internal_session()
        assert session.execute("SELECT n FROM items WHERE k = 7").rows == [(2,)]
        session.execute("DROP TABLE items")
        session.execute("CREATE TABLE items (s CHAR(8), k INTEGER PRIMARY KEY, n INTEGER)")
        session.execute("INSERT INTO items VALUES ('x', 7, 70)")
        assert session.execute("SELECT n FROM items WHERE k = 7").rows == [(70,)]
        assert session.execute("UPDATE items SET n = 1 WHERE k = 7").rows_affected == 1
        assert session.execute("SELECT * FROM items WHERE k = 7").rows == [("x", 7, 1)]

    def test_two_databases_with_different_layouts_share_nothing_they_read(self):
        narrow = items_db("narrow", ("k", "n", "s"))
        wide = items_db("wide", ("s", "f", "k", "n"))
        wide.table("items").create_index("ix_n", "n")
        a, b = narrow.internal_session(), wide.internal_session()
        for key in (3, 8, 13):
            in_narrow = a.execute(f"SELECT s, n FROM items WHERE n = 3 AND k = {key}")
            in_wide = b.execute(f"SELECT s, n FROM items WHERE n = 3 AND k = {key}")
            assert in_narrow.rows == in_wide.rows == [(f"s{key}", 3)]
            assert in_narrow.plan == "items:index(pk_items)"
            assert in_wide.plan == "items:index(ix_n)"
            assert a.execute(f"UPDATE items SET n = 9 WHERE k = {key}").rows_affected == 1
            assert b.execute(f"UPDATE items SET n = 9 WHERE k = {key}").rows_affected == 1
        assert sorted(
            (k, n) for k, n, _s in (v for _r, v in narrow.table("items").scan())
        ) == sorted(
            (k, n) for _s, _f, k, n in (v for _r, v in wide.table("items").scan())
        )

    def test_a_footprint_is_kept_per_table_layout(self):
        statement = "INSERT INTO items VALUES (1, 2, 'x')"
        one = extract_footprint(parse(statement), {"items": ("k", "n", "s")})
        other = extract_footprint(parse(statement), {"items": ("n", "k", "s")})
        unknown = extract_footprint(parse(statement), None)
        assert one.row_range.get("k").admits(1) and not one.row_range.get("k").admits(2)
        assert other.row_range.get("k").admits(2) and not other.row_range.get("k").admits(1)
        assert unknown.row_range is None and unknown.writes == frozenset()

    def test_a_checker_verdict_follows_its_catalog(self):
        catalog = SchemaCatalog([items_schema("k", "n", "s")])
        checker = SemanticChecker(catalog)
        ok = checker.check_statement(parse("UPDATE items SET f = 1.5 WHERE k = 1"))
        assert [d.code for d in ok.errors] == ["SEM002"]
        catalog.add(items_schema("k", "n", "s", "f"))
        text = "UPDATE items SET f = 22.25 WHERE k = 1234"
        assert checker.check_statement(parse(text)).diagnostics == ()
        fresh = SemanticChecker(SchemaCatalog([items_schema("k", "n")]))
        gone = fresh.check_statement(parse(text))
        assert [(d.code, d.position) for d in gone.errors] == [
            ("SEM002", text.index("f ="))
        ]

    def test_a_relevance_verdict_belongs_to_its_analyzer(self):
        columns = ("k", "n", "s")
        def analyzer(predicate):
            view = ViewDefinition(
                name="v", base_table="items", columns=columns,
                predicate=predicate, key_column="k", base_columns=columns,
            )
            return OpDeltaAnalyzer(views=[view], table_columns={"items": columns})

        low, high = analyzer("n < 3"), analyzer("n > 3")
        for key in (1, 2):
            statement = parse(f"DELETE FROM items WHERE n = {key} AND k = {key}")
            assert not low.analyze_statement(statement).pruned
            assert high.analyze_statement(statement).pruned


class TestKernelsAreKeptPerShape:
    def integrator(self):
        schema = parts_schema()
        warehouse = Warehouse()
        warehouse.create_mirror(schema)
        rows = list(PartsGenerator(seed=3).rows(50))
        warehouse.initial_load_rows("parts", rows)
        definition = ViewDefinition(
            name="catalog", base_table="parts", columns=schema.column_names,
            predicate=None, key_column="part_id", base_columns=schema.column_names,
        )
        database = warehouse.database
        view = warehouse.define_view(definition, schema)
        txn = database.begin()
        view.initialize([v for _r, v in database.table("parts").scan()], txn)
        database.commit(txn)
        integrator = OpDeltaIntegrator(
            database.internal_session(),
            views=[view],
            analyzer=OpDeltaAnalyzer(
                views=[definition], mirrored_tables={"parts"},
                key_columns={"parts": "part_id"},
                table_columns={"parts": schema.column_names},
            ),
            plans=ViewMaintenancePlanner(SchemaCatalog([schema])).plan_catalog(
                [definition]
            ),
        )
        return database, view, integrator

    def window(self, database, window, expected):
        """500 one-UPDATE transactions, ten on each of the 50 keys;
        ``expected`` (key -> row) follows them."""
        if not expected:
            expected.update(
                (values[0], values)
                for values in (v for _r, v in database.table("parts").scan())
            )
        groups = []
        for txn_id in range(500):
            sequence = window * 500 + txn_id + 1
            part_id, quantity = sequence % 50, 1000 + sequence
            sql = f"UPDATE parts SET quantity = {quantity} WHERE part_id = {part_id}"
            row = expected[part_id]
            expected[part_id] = row[:5] + (quantity,) + row[6:]
            groups.append(
                OpDeltaTransaction(
                    txn_id=window * 500 + txn_id,
                    operations=[
                        OpDelta(sql, "parts", OpKind.UPDATE, txn_id, sequence, 0.0)
                    ],
                )
            )
        return groups

    def test_five_thousand_distinct_literals_compile_once(self):
        """The kernel cache used to gain one entry per statement *text*."""
        database, view, integrator = self.integrator()
        TEMPLATES.clear()
        expected = {}
        for window in range(10):
            groups = self.window(database, window, expected)
            report = integrator.integrate_batched(groups, columnar=True)
            assert report.columnar_fallbacks == 0
        kernels = integrator._columnar.kernels
        # One shape: its mirror kernels and its view kernels, built once each.
        assert kernels.compiles == 2
        assert kernels.hits == 2 * 5000 - 2
        assert not hasattr(kernels, "_kernels")
        assert len(TEMPLATES) == 1
        schema = parts_schema()
        assert strip_timestamp(
            schema, (v for _r, v in database.table("parts").scan())
        ) == strip_timestamp(schema, expected.values())
        assert strip_timestamp(schema, view.rows()) == strip_timestamp(
            schema, expected.values()
        )

    def test_a_window_proves_only_the_pairs_on_one_key(self, monkeypatch):
        """The conflict graph and the certifier together prove the
        50 x C(10, 2) op pairs that share a key, not all C(500, 2)."""
        database, _view, integrator = self.integrator()
        proofs = []

        def counted(*args, **kwargs):
            proofs.append(args)
            return commutes(*args, **kwargs)

        monkeypatch.setattr(conflict, "commutes", counted)
        report = integrator.integrate_batched(
            self.window(database, 0, {}), columnar=True
        )
        assert report.certificate_verdict == "CERTIFIED"
        assert len(proofs) == 50 * 45 == 2250

    def test_a_compile_barrier_is_kept_per_shape(self):
        cache, scope, built = KernelCache(), Scope(), []

        def build(shape, slot):
            built.append(shape)
            raise CompileBarrier("volatile function RANDOM")

        for key in (1, 2, 3):
            statement = parse(f"UPDATE parts SET price = RANDOM() WHERE part_id = {key}")
            with pytest.raises(CompileBarrier, match="RANDOM"):
                cache.get(statement, scope, "update", build)
        other = parse("UPDATE parts SET quantity = RANDOM() WHERE part_id = 1")
        with pytest.raises(CompileBarrier):
            cache.get(other, scope, "update", build)
        assert len(built) == 2  # once per shape, not once per statement
        assert (cache.compiles, cache.hits) == (2, 2)


class TestPreparedTemplates:
    """Statements the program builds bind a template it wrote itself."""

    def test_a_prepared_template_binds_the_tree_the_program_would_build(self):
        table = TemplateTable()

        def build(slots):
            return ast.InsertStmt("items", None, rows=(tuple(map(ast.Literal, slots)),))

        row = (7, None, "it's")
        template = table.prepared(("insert row", "items"), row, build)
        assert template.shape == "INSERT INTO items VALUES (INTEGER, NULL, STRING)"
        assert template.kinds == ("INTEGER", None, "STRING")
        bound = template.bind(row, ())
        assert bound == build(list(row)) and bound.binding.template is template
        # Same key, same classes: the same template, whatever the values —
        # a value that equals a slot sentinel included.
        other = (1 << 60, None, "\x002")
        assert table.prepared(("insert row", "items"), other, build) is template
        assert template.bind(other, ()) == build(list(other))
        assert (template.hits, template.binds, len(table)) == (1, 2, 1)
        # A NULL cell is part of the shape, not a slot.
        full = table.prepared(("insert row", "items"), (7, 3, "x"), build)
        assert full is not template and len(table) == 2
        assert full.shape == "INSERT INTO items VALUES (INTEGER, INTEGER, STRING)"
        # A program key never meets the shape of a text.
        assert table.lookup(template.shape) is None
        with pytest.raises(SqlAnalysisError, match="SQL literals or NULL"):
            table.prepared(("insert row", "items"), (7, True, "x"), build)

    def test_the_prepared_door_runs_what_the_tree_door_runs(self):
        """``execute_prepared`` is ``execute_statement`` of the bound tree:
        same result, plan, clock and table — and no tree unless a capture
        hook is there to receive one (with the tree route's text)."""
        table = TemplateTable()

        def build(slots):
            return ast.InsertStmt("items", None, rows=(tuple(map(ast.Literal, slots)),))

        insert = table.prepared(("insert row", "items"), (0, 0, ""), build)
        delete = table.prepared(
            ("delete by key", "items", "k"), (0,),
            lambda slots: ast.DeleteStmt(
                "items", ast.BinaryOp("=", ast.ColumnRef("k"), ast.Literal(slots[0]))
            ),
        )
        rows = [(30, 1, "a"), (31, None, "it's"), (32, 3, None)]
        outcomes = []
        for door in ("tree", "prepared", "hooked"):
            database = items_db(f"door-{door}")
            session = database.internal_session()
            seen = []
            if door == "hooked":
                session.capture_hooks.append(lambda st, text, _s: seen.append(text))
            if door == "tree":
                results = [
                    session.execute_statement(ast.InsertStmt(
                        "items", None,
                        rows=tuple(tuple(map(ast.Literal, row)) for row in rows),
                    )),
                    session.execute_statement(delete.bind((5,), ())),
                ]
            else:
                results = [
                    session.execute_prepared(insert, rows),
                    session.execute_prepared(delete, ((5,),)),
                ]
            outcomes.append((
                [(r.rows_affected, r.plan) for r in results],
                database.clock.now.hex(),
                sorted(database.table("items").scan_values()),
                session.statements_executed,
            ))
            if door == "hooked":
                assert seen == [
                    "INSERT INTO items VALUES (30, 1, 'a'), (31, NULL, 'it''s'), "
                    "(32, 3, NULL)",
                    "DELETE FROM items WHERE (k = 5)",
                ]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0][0] == [(3, "insert"), (1, "delete:index(pk_items)")]
        # Trees: one for the tree door's DELETE, one per row and one DELETE
        # for the hook; four statements ran from their values.
        assert (insert.binds, delete.binds) == (3, 2)
        assert (insert.runs, delete.runs) == (2, 2)

    def test_an_array_bound_insert_is_one_bulk_statement(self):
        """N value rows of a one-row INSERT template are one statement: one
        ``stmt_overhead``, and every row a bulk client insert iff N > 1 —
        on the clock, exactly the engine calls and nothing else."""
        from repro.engine.table import InsertMode
        from repro.warehouse.value_integrator import row_insert

        for rows in ([(40, 1, "a")], [(40, 1, "a"), (41, None, None), (42, 3, "c")]):
            prepared, by_hand = items_db("array-prepared"), items_db("array-by-hand")
            session = prepared.internal_session()
            insert = row_insert("items", prepared.table("items").schema)
            session.begin()
            assert session.execute_prepared(insert, rows).rows_affected == len(rows)
            session.commit()
            mode = InsertMode.BULK_CLIENT if len(rows) > 1 else InsertMode.STATEMENT
            txn = by_hand.begin()
            by_hand.clock.advance(by_hand.costs.stmt_overhead)
            for row in rows:
                by_hand.table("items").insert(txn, row, mode=mode)
            by_hand.commit(txn)
            assert session.statements_executed == 1
            assert prepared.clock.now.hex() == by_hand.clock.now.hex()

    def test_the_prepared_door_refuses_what_it_cannot_run(self):
        database = items_db("door-refusals")
        session = database.internal_session()
        table = TemplateTable()
        delete = table.prepared(
            ("delete by key", "items", "k"), (0,),
            lambda slots: ast.DeleteStmt(
                "items", ast.BinaryOp("=", ast.ColumnRef("k"), ast.Literal(slots[0]))
            ),
        )
        select = table.prepared(
            ("select", "items"), (0,),
            lambda slots: ast.SelectStmt(
                items=(ast.SelectItem(ast.Star()),), table="items",
                where=ast.BinaryOp("=", ast.ColumnRef("k"), ast.Literal(slots[0])),
            ),
        )
        with pytest.raises(SqlAnalysisError, match="takes 1 values, not 2"):
            session.execute_prepared(delete, ((1, 2),))
        with pytest.raises(SqlAnalysisError, match="only an INSERT binds more"):
            session.execute_prepared(delete, ((1,), (2,)))
        with pytest.raises(SqlAnalysisError, match="at least one row"):
            session.execute_prepared(delete, ())
        with pytest.raises(SqlAnalysisError, match="does not run from its values"):
            session.execute_prepared(select, ((1,),))
        # Each refusal was a statement that failed: nothing changed.
        assert len(list(database.table("items").scan_values())) == 20
        assert session.statements_executed == 4 and not session.in_transaction

    def test_five_thousand_update_records_bind_two_templates(self):
        """One DELETE by key and one row INSERT per record: the value
        integrator's whole repertoire, listed by ``sys.templates``, run from
        the records' values with no tree built."""
        database = items_db("prepared")
        rows = {values[0]: values for values in database.table("items").scan_values()}
        integrator = ValueDeltaIntegrator(database.internal_session())
        TEMPLATES.clear()
        sequence = 0

        def listed():
            return SystemCatalog(StoreBundle()).query(
                "SELECT shape, kind, hits, binds, runs, builds FROM sys.templates "
                "WHERE table_name = 'items' ORDER BY kind"
            ).rows

        for window in range(10):
            batch = DeltaBatch("items", database.table("items").schema)
            for _record in range(500):
                sequence += 1
                before = rows[sequence % 20]
                after = rows[sequence % 20] = (before[0], sequence, before[2])
                batch.append(
                    DeltaRecord(ChangeKind.UPDATE, before[0], before=before, after=after)
                )
            report = integrator.integrate(batch)
            assert report.statements_issued == report.rows_affected == 1000
            if window == 0:
                after_one_window = len(TEMPLATES)
        assert sorted(database.table("items").scan_values()) == sorted(rows.values())
        # No growth: two shapes after 500 records, two after 5,000; each was
        # written once, looked up once per batch, ran 5,000 statements and
        # had its one executor fact built once — and no tree was bound.
        assert after_one_window == len(TEMPLATES) == 2
        assert listed() == [
            ("DELETE FROM items WHERE (k = INTEGER)", "DELETE", 9, 0, 5000, 1),
            ("INSERT INTO items VALUES (INTEGER, INTEGER, STRING)", "INSERT", 9, 0, 5000, 1),
        ]
