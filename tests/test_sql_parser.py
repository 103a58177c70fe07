"""Tests for the SQL parser and AST round-tripping."""

import re

import pytest

from repro.errors import SqlSyntaxError
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse, parse_expression


class TestSelect:
    def test_simple(self):
        stmt = parse("SELECT * FROM parts")
        assert isinstance(stmt, ast.SelectStmt)
        assert stmt.table == "parts"
        assert isinstance(stmt.items[0].expr, ast.Star)

    def test_columns_and_aliases(self):
        stmt = parse("SELECT part_id, price AS p, quantity q FROM parts")
        assert [i.alias for i in stmt.items] == [None, "p", "q"]

    def test_where_precedence(self):
        stmt = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert isinstance(stmt.where, ast.BinaryOp)
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"

    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parenthesised(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_join(self):
        stmt = parse(
            "SELECT * FROM parts p JOIN suppliers s ON p.supplier_id = s.supplier_id"
        )
        assert len(stmt.joins) == 1
        join = stmt.joins[0]
        assert join.table == "suppliers" and join.alias == "s"
        assert join.left.table == "p"
        assert not join.outer

    @pytest.mark.parametrize("spelling", ["LEFT JOIN", "LEFT OUTER JOIN", "left outer join"])
    def test_left_join(self, spelling):
        stmt = parse(f"SELECT * FROM a {spelling} b ON a.x = b.y")
        (join,) = stmt.joins
        assert join.outer and join.table == "b" and stmt.alias is None
        assert stmt.to_sql() == "SELECT * FROM a LEFT JOIN b ON a.x = b.y"

    def test_outer_alone_is_no_join(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM a OUTER JOIN b ON a.x = b.y")

    def test_group_order_limit(self):
        stmt = parse(
            "SELECT status, COUNT(*) FROM parts GROUP BY status "
            "ORDER BY status DESC LIMIT 5"
        )
        assert stmt.group_by[0].name == "status"
        assert stmt.order_by[0].ascending is False
        assert stmt.limit == 5

    def test_aggregates(self):
        stmt = parse("SELECT COUNT(*), SUM(price), AVG(price) FROM parts")
        functions = [i.expr.function for i in stmt.items]
        assert functions == ["COUNT", "SUM", "AVG"]

    def test_count_star_only_for_count(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT SUM(*) FROM parts")

    def test_constant_select(self):
        stmt = parse("SELECT 1 + 1")
        assert stmt.table is None

    def test_in_between_like_is_null(self):
        stmt = parse(
            "SELECT * FROM t WHERE a IN (1, 2) AND b BETWEEN 1 AND 5 "
            "AND c LIKE 'x%' AND d IS NOT NULL"
        )
        rendered = stmt.to_sql()
        assert "IN" in rendered and "BETWEEN" in rendered
        assert "LIKE" in rendered and "IS NOT NULL" in rendered

    def test_negated_predicates(self):
        stmt = parse("SELECT * FROM t WHERE a NOT IN (1) AND b NOT LIKE 'x'")
        conjunct = stmt.where.left
        assert isinstance(conjunct, ast.InList) and conjunct.negated


class TestDml:
    def test_insert_values(self):
        stmt = parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert isinstance(stmt, ast.InsertStmt)
        assert len(stmt.rows) == 2

    def test_insert_with_columns(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 2)")
        assert stmt.columns == ("a", "b")

    def test_insert_select(self):
        stmt = parse("INSERT INTO t SELECT * FROM s WHERE x > 1")
        assert stmt.select is not None
        assert stmt.select.table == "s"

    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = b + 1 WHERE c = 'x'")
        assert isinstance(stmt, ast.UpdateStmt)
        assert [a.column for a in stmt.assignments] == ["a", "b"]
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a < 5")
        assert isinstance(stmt, ast.DeleteStmt)

    def test_delete_all(self):
        assert parse("DELETE FROM t").where is None


class TestDdlAndTxn:
    def test_create_table(self):
        stmt = parse(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name CHAR(8) NOT NULL, "
            "price FLOAT, ts TIMESTAMP)"
        )
        assert isinstance(stmt, ast.CreateTableStmt)
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].not_null and stmt.columns[1].type_arg == 8

    def test_create_index(self):
        stmt = parse("CREATE UNIQUE INDEX ix ON t (col)")
        assert stmt == ast.CreateIndexStmt("ix", "t", "col", unique=True)
        # The B-tree is the one index kind: there is no USING clause.
        with pytest.raises(SqlSyntaxError, match="'USING' at position 34"):
            parse("CREATE UNIQUE INDEX ix ON t (col) USING HASH")

    def test_drop_and_truncate(self):
        assert isinstance(parse("DROP TABLE t"), ast.DropTableStmt)
        assert isinstance(parse("TRUNCATE TABLE t"), ast.TruncateStmt)
        assert isinstance(parse("TRUNCATE t"), ast.TruncateStmt)

    def test_txn_control(self):
        assert isinstance(parse("BEGIN"), ast.BeginStmt)
        assert isinstance(parse("COMMIT"), ast.CommitStmt)
        assert isinstance(parse("ROLLBACK"), ast.RollbackStmt)


class TestErrors:
    def test_trailing_garbage(self):
        with pytest.raises(SqlSyntaxError, match="trailing"):
            parse("SELECT 1 WHERE")

    def test_unknown_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse("GRANT ALL")

    def test_non_keyword_start(self):
        with pytest.raises(SqlSyntaxError):
            parse("foo bar")

    def test_missing_values(self):
        with pytest.raises(SqlSyntaxError):
            parse("INSERT INTO t")

    def test_column_without_type(self):
        with pytest.raises(SqlSyntaxError, match="type"):
            parse("CREATE TABLE t (id)")

    def test_trailing_semicolon_ok(self):
        assert isinstance(parse("SELECT 1;"), ast.SelectStmt)


class TestNesting:
    """The grammar recurses once per level of nesting, so Python's stack
    bounds how deep a text may nest; past it the text is refused as a
    syntax error at the token the parse had reached."""

    @pytest.mark.parametrize("depth", [150, 400])
    def test_deep_parentheses_are_a_positioned_syntax_error(self, depth):
        sql = "SELECT a FROM t WHERE " + "(" * depth + "a = 1" + ")" * depth
        with pytest.raises(SqlSyntaxError, match="nested too deeply") as caught:
            parse(sql)
        position = int(re.search(r"at position (\d+) in", str(caught.value))[1])
        assert sql.index("(") < position < sql.index("a = 1")

    def test_a_deep_bare_expression_is_a_positioned_syntax_error(self):
        with pytest.raises(SqlSyntaxError, match=r"nested too deeply at position \d+"):
            parse_expression("(" * 400 + "1" + ")" * 400)

    @pytest.mark.parametrize("depth", [1, 25, 60])
    def test_nesting_the_stack_allows_still_parses(self, depth):
        sql = "SELECT a FROM t WHERE " + "(" * depth + "a = 1" + ")" * depth
        assert parse(sql).where == ast.BinaryOp(
            "=", ast.ColumnRef("a"), ast.Literal(1)
        )


class TestToSqlRoundTrip:
    """to_sql output must re-parse to an equivalent statement.

    Op-Delta depends on this: captured statements are re-rendered after
    transformation and executed at the warehouse.
    """

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM parts WHERE quantity > 10",
            "SELECT part_id, price AS p FROM parts ORDER BY part_id DESC LIMIT 3",
            "SELECT status, COUNT(*) FROM parts GROUP BY status",
            "INSERT INTO t (a, b) VALUES (1, 'x''y')",
            "UPDATE parts SET status = 'revised' WHERE last_modified > 11.5",
            "DELETE FROM parts WHERE part_ref >= 10 AND part_ref < 20",
            "SELECT * FROM a JOIN b ON a.x = b.y WHERE a.z IN (1, 2, 3)",
            "SELECT a.x, b.y FROM a LEFT JOIN b ON a.x = b.y WHERE a.z > 1",
            "SELECT * FROM a x LEFT OUTER JOIN b y ON x.k = y.k JOIN c ON x.k = c.k",
            "SELECT * FROM t WHERE name LIKE '%x_' AND v BETWEEN 1 AND 2",
        ],
    )
    def test_roundtrip(self, sql):
        first = parse(sql)
        second = parse(first.to_sql())
        assert first.to_sql() == second.to_sql()


class TestFunctionCalls:
    def test_zero_arg_call(self):
        from repro.sql import ast_nodes as ast
        from repro.sql.parser import parse_expression

        expr = parse_expression("NOW()")
        assert isinstance(expr, ast.FuncCall)
        assert expr.function == "NOW"
        assert expr.args == ()
        assert expr.is_volatile

    def test_args_and_nesting(self):
        from repro.sql import ast_nodes as ast
        from repro.sql.parser import parse_expression

        expr = parse_expression("COALESCE(ABS(a), b + 1, 0)")
        assert isinstance(expr, ast.FuncCall)
        assert expr.function == "COALESCE"
        assert len(expr.args) == 3
        assert isinstance(expr.args[0], ast.FuncCall)
        assert not expr.is_volatile

    def test_case_insensitive_name(self):
        from repro.sql import ast_nodes as ast
        from repro.sql.parser import parse_expression

        expr = parse_expression("upper(s)")
        assert isinstance(expr, ast.FuncCall)
        assert expr.function == "UPPER"

    def test_unknown_function_rejected(self):
        import pytest

        from repro.errors import SqlSyntaxError
        from repro.sql.parser import parse_expression

        with pytest.raises(SqlSyntaxError, match="unknown function"):
            parse_expression("FROBNICATE(1)")

    def test_round_trip_to_sql(self):
        from repro.sql.parser import parse_expression

        expr = parse_expression("COALESCE(ABS(a), 0)")
        assert expr.to_sql() == "COALESCE(ABS(a), 0)"

    def test_bare_identifier_still_a_column(self):
        from repro.sql import ast_nodes as ast
        from repro.sql.parser import parse_expression

        expr = parse_expression("now")
        assert isinstance(expr, ast.ColumnRef)
