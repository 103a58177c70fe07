"""Tests for the planner/executor: access paths, joins, aggregates, DML."""

import dataclasses

import pytest

from repro.clock import VirtualClock
from repro.engine import Database
from repro.errors import SqlAnalysisError, SqlSyntaxError
from repro.sql.executor import Executor
from repro.sql.parser import parse

from .conftest import insert_parts


def _session():
    database = Database("exec-test")
    s = database.internal_session()
    s.execute(
        "CREATE TABLE parts (part_id INTEGER PRIMARY KEY, part_ref INTEGER "
        "NOT NULL, part_no CHAR(12) NOT NULL, description CHAR(40), "
        "status CHAR(10) NOT NULL, quantity INTEGER NOT NULL, price FLOAT "
        "NOT NULL, last_modified TIMESTAMP, supplier_id INTEGER NOT NULL)"
    )
    insert_parts(database, 100)
    s.execute(
        "CREATE TABLE suppliers (supplier_id INTEGER PRIMARY KEY, "
        "supplier_name CHAR(24) NOT NULL, region CHAR(12) NOT NULL)"
    )
    for i in range(20):
        s.execute(
            f"INSERT INTO suppliers VALUES ({i}, 'Supplier {i}', 'R{i % 4}')"
        )
    return s


@pytest.fixture
def session():
    return _session()


class TestAccessPaths:
    def test_pk_equality_uses_index(self, session):
        result = session.execute("SELECT * FROM parts WHERE part_id = 7")
        assert "index(pk_parts)" in result.plan
        assert len(result.rows) == 1

    def test_selective_range_uses_index(self, session):
        result = session.execute("SELECT * FROM parts WHERE part_id < 3")
        assert "index-range" in result.plan
        assert len(result.rows) == 3

    def test_wide_range_falls_back_to_scan(self, session):
        result = session.execute("SELECT * FROM parts WHERE part_id < 90")
        assert "scan" in result.plan and "index" not in result.plan
        assert len(result.rows) == 90

    def test_unindexed_predicate_scans(self, session):
        result = session.execute("SELECT * FROM parts WHERE part_ref = 7")
        assert "scan" in result.plan

    def test_flipped_operands_still_use_index(self, session):
        result = session.execute("SELECT * FROM parts WHERE 7 = part_id")
        assert "index(pk_parts)" in result.plan

    def test_residual_predicate_applied_after_index(self, session):
        result = session.execute(
            "SELECT * FROM parts WHERE part_id = 7 AND status = 'nonexistent'"
        )
        assert "index" in result.plan
        assert result.rows == []

    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT part_id FROM parts WHERE {column} {predicate}",
            "UPDATE parts SET status = 'hit' WHERE {column} {predicate}",
            "DELETE FROM parts WHERE {column} {predicate}",
        ],
        ids=["select", "update", "delete"],
    )
    @pytest.mark.parametrize(
        "predicate",
        ["= 'abc'", "< 'abc'", "= NULL"],
        ids=["eq-string", "lt-string", "eq-null"],
    )
    def test_literal_an_index_cannot_hold_is_left_to_the_evaluator(
        self, session, statement, predicate
    ):
        """The indexed key answers exactly as its unindexed twin does.

        A bare ``TypeError`` from the B-tree's bisect used to escape here.
        """

        def outcome(column):
            sql = statement.format(column=column, predicate=predicate)
            try:
                result = session.execute(sql)
            except SqlAnalysisError as error:
                return str(error)
            return result.plan.split(":")[-1], result.rows, result.rows_affected

        expected = outcome("part_ref")
        assert outcome("part_id") == expected
        if predicate == "= NULL":  # UNKNOWN for every row: nothing matches
            assert expected == ("scan", [], 0)
        else:
            assert expected.startswith("cannot compare int with str using")

    def test_float_literal_keeps_its_index_plan(self, session):
        result = session.execute("SELECT part_id FROM parts WHERE part_id = 1.0")
        assert "index(pk_parts)" in result.plan
        assert result.rows == [(1,)]


class ListSource:
    """The read contract of :mod:`repro.sql.source` over a list: a copy of an
    engine table's rows with no index; a row's position is its id."""

    def __init__(self, table):
        self.name = table.name
        self.schema = table.schema
        self.rows = [values for _row_id, values in table.scan()]

    def scan_values(self, columns, keep=None):
        rows = [tuple(row[c] for c in columns) for row in self.rows]
        return rows if keep is None else [rows[at] for at in keep(rows)]

    def read(self, row_id, columns):
        raise AssertionError("nothing planned an index path over this source")

    def index_on(self, column):
        return None


class ListDatabase:
    def __init__(self, database):
        self.name = "lists"
        self.clock = VirtualClock()
        self.costs = database.costs
        self._sources = {table.name: ListSource(table) for table in database.tables()}

    def table(self, name):
        return self._sources[name]


class TestRowSources:
    """SELECT runs over anything that satisfies the read contract."""

    @pytest.mark.parametrize(
        "sql, over_tables_plan",
        [
            ("SELECT * FROM parts WHERE part_id = 7", "parts:index(pk_parts)"),
            (
                "SELECT part_no, quantity FROM parts WHERE part_id < 3 "
                "ORDER BY part_no",
                "parts:index-range(pk_parts)",
            ),
            (
                "SELECT status, COUNT(*), SUM(quantity) FROM parts "
                "WHERE part_id >= 97 GROUP BY status",
                "parts:index-range(pk_parts)",
            ),
            (
                "SELECT p.part_id, s.region FROM parts p JOIN suppliers s "
                "ON p.supplier_id = s.supplier_id WHERE p.part_id = 3",
                "parts:index(pk_parts) join(suppliers:hash)",
            ),
        ],
    )
    def test_an_index_less_source_scans_to_the_same_rows(
        self, session, sql, over_tables_plan
    ):
        over_tables = session.execute(sql)
        assert over_tables.plan == over_tables_plan
        # ListSource.read raises, so this also proves it is never called.
        over_lists = Executor(ListDatabase(session.database)).execute(
            parse(sql), None
        )
        assert over_lists.columns == over_tables.columns
        assert over_lists.rows == over_tables.rows
        assert over_lists.plan == over_tables_plan.replace(
            over_tables_plan.split()[0], "parts:scan"
        )

    def test_a_where_is_not_pushed_below_a_join(self):
        # The probe charges once per base row it is handed, so a WHERE applied
        # where the base table is read would move modelled time.
        filtered, plain = _session(), _session()
        join = (
            "SELECT p.part_id, s.region FROM parts p JOIN suppliers s "
            "ON p.supplier_id = s.supplier_id"
        )
        kept = filtered.execute(join + " WHERE p.status = 'active'")
        everything = plain.execute(join)
        assert kept.plan == everything.plan == "parts:scan join(suppliers:hash)"
        assert 0 < len(kept.rows) < len(everything.rows) == 100
        assert filtered.database.clock.now == plain.database.clock.now
        # Without the join the same WHERE is the scan's filter, at the cost
        # of the unfiltered scan.
        alone = "SELECT part_id FROM parts"
        assert len(filtered.query(alone + " WHERE status = 'active'")) == len(kept.rows)
        assert len(plain.query(alone)) == 100
        assert filtered.database.clock.now == plain.database.clock.now

    def test_only_select_runs_over_a_source(self, session):
        lists = ListDatabase(session.database)
        for sql in (
            "DELETE FROM parts",
            "UPDATE parts SET quantity = 0",
            "INSERT INTO suppliers VALUES (99, 'x', 'y')",
            "CREATE TABLE t (a INTEGER)",
            "DROP TABLE parts",
        ):
            with pytest.raises(SqlAnalysisError, match="only SELECT runs over 'lists'"):
                Executor(lists).execute(parse(sql), None)
        assert len(lists.table("parts").rows) == 100


class TestPinnedCosts:
    """What a scan-shaped statement costs, to the bit: ``clock.now`` after it
    and the ``rows_scanned`` it added, as the record-at-a-time executor left
    them on the 100-part, 20-supplier database of this module (two heap
    pages of parts).  Reads work a page at a time; the charges are the same
    additions in the same order."""

    @pytest.mark.parametrize(
        "sql, plan, rows, affected, now, scanned",
        [
            (   # the WHERE stays above the join, on all 100 probed rows
                "SELECT p.part_id, s.region FROM parts p JOIN suppliers s "
                "ON p.supplier_id = s.supplier_id "
                "WHERE p.quantity > 300 AND s.region <> 'R1'",
                "parts:scan join(suppliers:hash)", 47, 0,
                "0x1.085916872afb8p+9", 120,
            ),
            (   # GROUP BY over a filtered scan
                "SELECT status, COUNT(*), SUM(quantity) FROM parts "
                "WHERE price > 20 GROUP BY status",
                "parts:scan", 5, 0, "0x1.0854189374b93p+9", 100,
            ),
            (
                "UPDATE parts SET quantity = quantity + 1 "
                "WHERE part_ref >= 10 AND part_ref < 60",
                "update:scan", 0, 50, "0x1.4a60e56041845p+9", 100,
            ),
            (
                "DELETE FROM parts WHERE part_ref >= 40 AND status <> 'active'",
                "delete:scan", 0, 48, "0x1.6b2916872afd3p+9", 100,
            ),
        ],
    )
    def test_a_scan_shaped_statement_costs_what_it_did(
        self, session, sql, plan, rows, affected, now, scanned
    ):
        clock = session.database.clock
        counter = session.database.metrics.counter(
            "engine.table.rows_scanned", db="exec-test"
        )
        assert clock.now.hex() == "0x1.04b083126e971p+9"
        before = counter.value
        result = session.execute(sql)
        assert (result.plan, len(result.rows), result.rows_affected) == (
            plan, rows, affected
        )
        assert clock.now.hex() == now
        assert counter.value - before == scanned


class TestSelectFeatures:
    def test_projection_names(self, session):
        result = session.execute("SELECT part_id, price AS cost FROM parts LIMIT 1")
        assert result.columns == ["part_id", "cost"]

    def test_order_by_and_limit(self, session):
        rows = session.query(
            "SELECT part_id FROM parts ORDER BY part_id DESC LIMIT 3"
        )
        assert rows == [(99,), (98,), (97,)]

    def test_order_by_expression_alias(self, session):
        rows = session.query(
            "SELECT part_id, price * 2 AS double_price FROM parts "
            "ORDER BY double_price LIMIT 1"
        )
        assert len(rows) == 1

    def test_aggregate_global(self, session):
        assert session.scalar("SELECT COUNT(*) FROM parts") == 100

    def test_aggregate_group_by(self, session):
        rows = session.query(
            "SELECT supplier_id, COUNT(*) FROM parts GROUP BY supplier_id"
        )
        assert sum(count for _sid, count in rows) == 100

    def test_aggregate_functions(self, session):
        rows = session.query(
            "SELECT MIN(part_id), MAX(part_id), AVG(part_id) FROM parts"
        )
        low, high, average = rows[0]
        assert (low, high) == (0, 99)
        assert average == pytest.approx(49.5)

    def test_aggregate_on_empty_input(self, session):
        rows = session.query(
            "SELECT COUNT(*), SUM(price) FROM parts WHERE part_id = -1"
        )
        assert rows == [(0, None)]

    def test_non_grouped_column_rejected(self, session):
        with pytest.raises(SqlAnalysisError, match="GROUP BY"):
            session.execute("SELECT status, COUNT(*) FROM parts GROUP BY supplier_id")

    def test_join(self, session):
        rows = session.query(
            "SELECT p.part_id, s.supplier_name FROM parts p "
            "JOIN suppliers s ON p.supplier_id = s.supplier_id "
            "WHERE p.part_id < 5"
        )
        assert len(rows) == 5
        assert all(name.startswith("Supplier") for _id, name in rows)

    def test_join_star_expansion(self, session):
        rows = session.query(
            "SELECT * FROM parts p JOIN suppliers s "
            "ON p.supplier_id = s.supplier_id WHERE p.part_id = 1"
        )
        assert len(rows[0]) == 9 + 3

    def test_constant_select(self, session):
        assert session.scalar("SELECT 2 + 3") == 5


def _nullable(key="NULL"):
    """``a(id, x, n) = {(1, key, 'p'), (2, 5, 'q')}``, ``b(id, y) = {(10, key), (20, 5)}``."""
    s = Database("nullable").internal_session()
    s.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER, n CHAR(8))")
    s.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, y INTEGER)")
    s.execute(f"INSERT INTO a VALUES (1, {key}, 'p'), (2, 5, 'q')")
    s.execute(f"INSERT INTO b VALUES (10, {key}), (20, 5)")
    return s


@pytest.fixture
def nullable():
    return _nullable()


class TestNullKeysAndTypedAggregates:
    def test_null_does_not_join_null(self, nullable):
        # ON a.x = b.y is the comparison WHERE a.x = b.y is: UNKNOWN on NULL.
        join = "SELECT a.id, b.id FROM a JOIN b ON a.x = b.y"
        assert nullable.query(join) == [(2, 20)]
        assert nullable.query(join + " WHERE a.x = b.y") == [(2, 20)]
        assert nullable.query("SELECT a.id, b.id FROM b JOIN a ON a.x = b.y") == [(2, 20)]

    def test_a_left_join_pads_a_null_and_an_unmatched_key(self, nullable):
        # a(1) has the NULL key, which equals nothing; a(2)'s 5 finds b(20).
        nullable.execute("INSERT INTO a VALUES (3, 6, 'r')")  # no b.y = 6
        assert nullable.query(
            "SELECT a.id, b.id, b.y FROM a LEFT JOIN b ON a.x = b.y"
        ) == [(1, None, None), (2, 20, 5), (3, None, None)]
        # The inner join over the same rows keeps only the match.
        assert nullable.query(
            "SELECT a.id, b.id, b.y FROM a JOIN b ON a.x = b.y"
        ) == [(2, 20, 5)]

    def test_a_left_join_filters_its_padded_rows_above_the_join(self, nullable):
        assert nullable.query(
            "SELECT a.id FROM a LEFT OUTER JOIN b ON a.x = b.y WHERE b.id IS NULL"
        ) == [(1,)]

    def test_a_left_join_charges_as_the_inner_join_does(self, nullable):
        inner = _nullable()
        inner.query("SELECT a.id FROM a JOIN b ON a.x = b.y")
        nullable.query("SELECT a.id FROM a LEFT JOIN b ON a.x = b.y")
        assert nullable.database.clock.now == inner.database.clock.now

    def test_a_null_probe_key_is_still_charged_for(self, nullable):
        # Modelled time is that of the same join over keys that do match.
        matching = _nullable(key="7")
        join = "SELECT a.id FROM a JOIN b ON a.x = b.y"
        assert len(matching.query(join)) == 2 and len(nullable.query(join)) == 1
        assert nullable.database.clock.now == matching.database.clock.now

    @pytest.mark.parametrize("function", ["SUM", "AVG"])
    def test_sum_and_avg_of_text_are_typed_errors(self, nullable, function):
        with pytest.raises(
            SqlAnalysisError, match=f"aggregate {function} requires a number, got 'p'"
        ):
            nullable.execute(f"SELECT {function}(n) FROM a")
        assert nullable.scalar(f"SELECT {function}(x) FROM a") == 5

    def test_min_and_max_of_text_keep_working(self, nullable):
        assert nullable.query("SELECT MIN(n), MAX(n), COUNT(n) FROM a") == [("p", "q", 2)]


class TestDml:
    def test_update_rows_affected(self, session):
        result = session.execute(
            "UPDATE parts SET status = 'audited' WHERE part_ref < 10"
        )
        assert result.rows_affected == 10
        assert session.scalar(
            "SELECT COUNT(*) FROM parts WHERE status = 'audited'"
        ) == 10

    def test_update_expression_assignment(self, session):
        before = session.scalar("SELECT price FROM parts WHERE part_id = 1")
        session.execute("UPDATE parts SET price = price * 2 WHERE part_id = 1")
        after = session.scalar("SELECT price FROM parts WHERE part_id = 1")
        assert after == pytest.approx(before * 2)

    def test_delete(self, session):
        result = session.execute("DELETE FROM parts WHERE part_ref >= 90")
        assert result.rows_affected == 10
        assert session.scalar("SELECT COUNT(*) FROM parts") == 90

    def test_insert_select(self, session):
        session.execute(
            "CREATE TABLE parts_copy (part_id INTEGER PRIMARY KEY, part_ref "
            "INTEGER NOT NULL, part_no CHAR(12) NOT NULL, description CHAR(40), "
            "status CHAR(10) NOT NULL, quantity INTEGER NOT NULL, price FLOAT "
            "NOT NULL, last_modified TIMESTAMP, supplier_id INTEGER NOT NULL)"
        )
        result = session.execute(
            "INSERT INTO parts_copy SELECT * FROM parts WHERE part_ref < 20"
        )
        assert result.rows_affected == 20

    def test_insert_with_column_list_fills_nulls(self, session):
        session.execute(
            "INSERT INTO parts (part_id, part_ref, part_no, status, quantity, "
            "price, supplier_id) VALUES (500, 500, 'PN-500', 'new', 1, 1.0, 0)"
        )
        row = session.query("SELECT description FROM parts WHERE part_id = 500")
        assert row == [(None,)]

    def test_update_via_index_path(self, session):
        result = session.execute("UPDATE parts SET quantity = 0 WHERE part_id = 3")
        assert "index" in result.plan
        assert result.rows_affected == 1

    # A column named twice used to take the last value written — silently,
    # unless the optional SemanticChecker (SEM005) happened to be attached.
    # ``templated`` runs the statement as parsed (the shape's template decides
    # once); stripped of its binding it is built from afresh.
    @staticmethod
    def _run(session, sql, templated):
        statement = parse(sql)
        if not templated:
            statement = dataclasses.replace(statement)
            assert statement.binding is None
        return session.execute_statement(statement)

    @pytest.mark.parametrize("templated", [True, False])
    def test_insert_naming_a_column_twice_is_refused(self, session, templated):
        sql = (
            "INSERT INTO suppliers (supplier_id, supplier_id, supplier_name, "
            "region) VALUES (90, 91, 'twice', 'R0')"
        )
        for _again in range(2):  # the verdict is the shape's: same every time
            with pytest.raises(SqlAnalysisError, match="'supplier_id' listed twice"):
                self._run(session, sql, templated)
        assert session.scalar("SELECT COUNT(*) FROM suppliers") == 20

    @pytest.mark.parametrize("templated", [True, False])
    def test_insert_naming_every_column_in_another_order(self, session, templated):
        # One row of literals, one per column, in order: only the column
        # list says which column each goes to.
        sql = (
            "INSERT INTO suppliers (region, supplier_name, supplier_id) "
            "VALUES ('R9', 'reordered', 95)"
        )
        assert self._run(session, sql, templated).rows_affected == 1
        assert session.query(
            "SELECT supplier_name, region FROM suppliers WHERE supplier_id = 95"
        ) == [("reordered", "R9")]

    @pytest.mark.parametrize("templated", [True, False])
    def test_update_assigning_a_column_twice_is_refused(self, session, templated):
        sql = "UPDATE suppliers SET region = 'a', region = 'b' WHERE supplier_id = 3"
        for _again in range(2):
            with pytest.raises(SqlAnalysisError, match="'region' assigned twice"):
                self._run(session, sql, templated)
        assert session.query(
            "SELECT region FROM suppliers WHERE supplier_id = 3"
        ) == [("R3",)]


class TestDdl:
    def test_create_drop_table(self, session):
        session.execute("CREATE TABLE tiny (a INTEGER PRIMARY KEY, b CHAR(4))")
        session.execute("INSERT INTO tiny VALUES (1, 'x')")
        session.execute("DROP TABLE tiny")
        with pytest.raises(Exception):
            session.execute("SELECT * FROM tiny")

    def test_truncate(self, session):
        result = session.execute("TRUNCATE TABLE suppliers")
        assert result.rows_affected == 20
        assert session.scalar("SELECT COUNT(*) FROM suppliers") == 0

    def test_create_index_statement(self, session):
        session.execute("CREATE INDEX by_status ON parts (status)")
        assert session.database.table("parts").index("by_status").column == "status"
        with pytest.raises(SqlSyntaxError, match="'USING' at position 39"):
            session.execute("CREATE INDEX by_kind ON parts (status) USING HASH")


class TestRowLayoutAndLazyDiagnostics:
    """What the per-statement row layout and the lazy row binding promise."""

    def test_unknown_column_over_an_empty_table_returns_no_rows(self, session):
        session.execute("CREATE TABLE empty (id INTEGER PRIMARY KEY)")
        assert session.query("SELECT nope FROM empty WHERE nope = 1") == []
        assert session.execute("UPDATE empty SET id = nope").rows_affected == 0
        assert session.execute("DELETE FROM empty WHERE nope = 1").rows_affected == 0
        assert session.query("SELECT SUM(nope) FROM empty") == [(None,)]

    def test_unknown_column_raises_once_a_row_reaches_it(self, session):
        with pytest.raises(SqlAnalysisError, match="unknown column 'nope'"):
            session.query("SELECT part_id FROM parts WHERE nope = 1")
        # ... and a short-circuit keeps every row away from it.
        assert session.query("SELECT part_id FROM parts WHERE 1 = 2 AND nope = 1") == []

    def test_bare_name_in_a_join_reads_the_joined_table(self, session):
        session.execute("CREATE TABLE l (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)")
        session.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)")
        session.execute("INSERT INTO l VALUES (1, 10), (2, 20)")
        session.execute("INSERT INTO r VALUES (1, 111), (2, 222)")
        rows = session.query(
            "SELECT v, l.v, x.v FROM l JOIN r x ON l.id = x.id ORDER BY l.v"
        )
        assert rows == [(111, 10, 111), (222, 20, 222)]
        # The bare name also reads the joined table in WHERE.
        assert session.query(
            "SELECT l.v FROM l JOIN r ON l.id = r.id WHERE v = 222"
        ) == [(20,)]

    @staticmethod
    def _fact_and_dimension(session):
        """``f`` and ``d`` share the bare name ``name``; returns their join."""
        session.execute(
            "CREATE TABLE f (id INTEGER PRIMARY KEY, name CHAR(8), sid INTEGER, "
            "q INTEGER)"
        )
        session.execute("CREATE TABLE d (sid INTEGER PRIMARY KEY, name CHAR(8))")
        session.execute(
            "INSERT INTO f VALUES (1, 'a', 1, 5), (2, 'b', 2, 7), (3, 'c', 1, 9)"
        )
        session.execute("INSERT INTO d VALUES (1, 'y'), (2, 'x')")
        return "FROM f JOIN d ON f.sid = d.sid"

    def test_a_qualified_grouping_column_is_the_column_it_names(self, session):
        # Matched by bare name, GROUP BY f.name used to answer under d.name.
        join = self._fact_and_dimension(session)
        with pytest.raises(SqlAnalysisError, match="'d.name' must appear in GROUP BY"):
            session.query(f"SELECT d.name, COUNT(*) {join} GROUP BY f.name")
        assert session.query(
            f"SELECT d.name, f.name, COUNT(*), SUM(q) {join} GROUP BY f.name, d.name"
        ) == [("y", "a", 1, 5), ("x", "b", 1, 7), ("y", "c", 1, 9)]
        assert session.query(f"SELECT name, COUNT(*) {join} GROUP BY d.name") == [
            ("y", 2), ("x", 1)
        ]

    def test_a_qualified_sort_column_is_the_column_it_names(self, session):
        # Matched by bare name, ORDER BY d.name used to sort by f.name.
        join = self._fact_and_dimension(session)
        assert session.query(f"SELECT f.name, d.name {join} ORDER BY d.name") == [
            ("b", "x"), ("a", "y"), ("c", "y")
        ]
        assert session.query(f"SELECT f.name, d.name {join} ORDER BY f.name DESC") == [
            ("c", "y"), ("b", "x"), ("a", "y")
        ]
        assert session.query(
            f"SELECT d.name, COUNT(*) {join} GROUP BY d.name ORDER BY d.name"
        ) == [("x", 1), ("y", 2)]

    def test_star_over_a_join_is_base_columns_then_joined_columns(self, session):
        result = session.execute(
            "SELECT * FROM parts p JOIN suppliers s "
            "ON p.supplier_id = s.supplier_id WHERE p.part_id = 7"
        )
        assert result.columns == [
            "part_id", "part_ref", "part_no", "description", "status",
            "quantity", "price", "last_modified", "supplier_id",
            "supplier_id", "supplier_name", "region",
        ]
        (row,) = result.rows
        assert row[0] == 7 and row[8] == row[9]
        assert row[10] == f"Supplier {row[9]}"

    def test_equal_literals_of_different_types_keep_their_types(self, session):
        # Literal(1) == Literal(1.0) == Literal(True) with equal hashes: a
        # value-keyed kernel memo would answer the second with the first.
        first = session.scalar("SELECT 1")
        second = session.scalar("SELECT 1.0")
        assert (type(first), first) == (int, 1)
        assert (type(second), second) == (float, 1.0)

    def test_now_is_one_value_per_statement(self, session):
        session.execute(
            "UPDATE parts SET last_modified = NOW() WHERE part_id < 50"
        )
        stamps = session.query(
            "SELECT last_modified FROM parts WHERE part_id < 50"
        )
        assert len(stamps) == 50 and len(set(stamps)) == 1
        session.execute(
            "CREATE TABLE log (id INTEGER PRIMARY KEY, at TIMESTAMP NOT NULL)"
        )
        session.execute("INSERT INTO log VALUES (1, NOW()), (2, NOW()), (3, NOW())")
        assert len(set(session.query("SELECT at FROM log"))) == 1



class TestAShapeIsPlannedOnce:
    """A SELECT shape is planned once, and its plan holds nothing of the
    statement it was planned from: a second statement of the shape, with
    other literals, gets its own output names, ORDER BY refusal, LIMIT and
    session values."""

    @staticmethod
    def _one_shape(*texts):
        templates = {parse(text).binding.template for text in texts}
        assert len(templates) == 1, texts

    def test_output_names_are_the_statements_own(self, session):
        texts = [
            f"SELECT part_id, price * {factor} FROM parts WHERE part_id < {n}"
            for factor, n in (("2.5", 2), ("3.5", 3))
        ]
        self._one_shape(*texts)
        first, second = map(session.execute, texts)
        assert first.columns == ["part_id", "(price * 2.5)"]
        assert second.columns == ["part_id", "(price * 3.5)"]
        assert [price for _id, price in second.rows] == [
            price * 3.5 for (price,) in session.query(
                "SELECT price FROM parts WHERE part_id < 3"
            )
        ]

    def test_an_order_by_matches_and_refuses_with_the_statements_literals(
        self, session
    ):
        texts = [
            f"SELECT part_id, price + {a} FROM parts ORDER BY price + {b} LIMIT 2"
            for a, b in ((1, 1), (1, 2), (2, 2))
        ]
        self._one_shape(*texts)
        assert session.execute(texts[0]).columns == ["part_id", "(price + 1)"]
        with pytest.raises(
            SqlAnalysisError, match=r"'\(price \+ 2\)' is not in the select list"
        ):
            session.execute(texts[1])
        assert session.execute(texts[2]).columns == ["part_id", "(price + 2)"]
        refusal = "SELECT part_id FROM parts ORDER BY price + {}"
        self._one_shape(refusal.format(1), refusal.format(2))
        for n in (1, 2):
            with pytest.raises(
                SqlAnalysisError, match=rf"'\(price \+ {n}\)' is not in the select list"
            ):
                session.execute(refusal.format(n))

    def test_a_limit_is_the_statements_own(self, session):
        texts = [f"SELECT part_id FROM parts ORDER BY part_id LIMIT {n}" for n in (3, 5)]
        self._one_shape(*texts)
        assert [len(session.query(text)) for text in texts] == [3, 5]

    def test_session_values_are_the_statements_own(self, session):
        clock = session.database.clock
        texts = [f"SELECT NOW(), RANDOM() FROM parts WHERE part_id < {n}" for n in (2, 3)]
        self._one_shape(*texts)
        seen = []
        for text in texts:
            first = session.query(text)
            now, _draw = first[0]
            assert {at for at, _draw in first} == {now} and now < clock.now
            seen.append(first)
        (now1, draw1), _ = seen[0]
        (now2, draw2), _, _ = seen[1]
        assert now2 > now1
        draws = [draw for rows in seen for _now, draw in rows]
        assert len(set(draws)) == len(draws) == 5

    def test_a_plan_is_dropped_with_a_table_it_read(self, session):
        join = (
            "SELECT p.part_id, s.region FROM parts p JOIN suppliers s "
            "ON p.supplier_id = s.supplier_id WHERE p.part_id = {}"
        )
        rows = session.query(join.format(3))
        supplier = session.scalar("SELECT supplier_id FROM parts WHERE part_id = 3")
        assert rows == [(3, f"R{supplier % 4}")]
        # The dimension again, its columns in another order: the plan read
        # the old one's positions.
        session.execute("DROP TABLE suppliers")
        session.execute(
            "CREATE TABLE suppliers (region CHAR(12) NOT NULL, "
            "supplier_id INTEGER PRIMARY KEY, supplier_name CHAR(24) NOT NULL)"
        )
        for i in range(20):
            session.execute(f"INSERT INTO suppliers VALUES ('Q{i}', {i}, 'S{i}')")
        assert session.query(join.format(3)) == [(3, f"Q{supplier}")]
        # An index made since is taken by the next statement of the shape.
        point = "SELECT part_id FROM parts WHERE part_ref = {}"
        assert session.execute(point.format(5)).plan == "parts:scan"
        session.execute("CREATE INDEX by_ref ON parts (part_ref)")
        assert session.execute(point.format(6)).plan == "parts:index(by_ref)"


class TestColumnPrunedScans:
    """A statement decodes only the columns it reads; nothing else changes."""

    @pytest.fixture
    def sparse(self, session):
        """30 rows with NULLs in the columns statements read and in the rest."""
        session.execute(
            "CREATE TABLE sparse (id INTEGER PRIMARY KEY, k INTEGER, a INTEGER, "
            "b CHAR(8), c FLOAT)"
        )
        rows = []
        for i in range(30):
            k = None if i % 7 == 0 else i
            a = None if i % 5 == 0 else i * 10
            b = None if i % 4 == 0 else f"g{i % 3}"
            c = None if i % 3 == 0 else i / 2
            rows.append((i, k, a, b, c))
            literals = ", ".join(
                "NULL" if v is None else repr(v) for v in (i, k, a, b, c)
            )
            session.execute(f"INSERT INTO sparse VALUES ({literals})")
        return rows

    def test_range_update_delete_and_aggregate_match_a_recompute(
        self, session, sparse
    ):
        updated = session.execute(
            "UPDATE sparse SET a = a + 1 WHERE k BETWEEN 3 AND 12"
        )
        expected = [
            (i, k, a + 1 if a is not None else None, b, c)
            if k is not None and 3 <= k <= 12
            else (i, k, a, b, c)
            for i, k, a, b, c in sparse
        ]
        assert updated.rows_affected == 9
        assert session.query("SELECT * FROM sparse ORDER BY id") == expected

        deleted = session.execute("DELETE FROM sparse WHERE k >= 20 OR c IS NULL")
        expected = [
            row for row in expected
            if not ((row[1] is not None and row[1] >= 20) or row[4] is None)
        ]
        assert deleted.rows_affected == 30 - len(expected)
        assert session.query("SELECT * FROM sparse ORDER BY id") == expected

        groups: dict = {}
        for _i, k, a, b, _c in expected:
            if k is not None and k < 15:
                groups.setdefault(b, []).append(a)
        recomputed = {
            b: (
                len(members),
                len([a for a in members if a is not None]),
                sum([a for a in members if a is not None]) or None,
            )
            for b, members in groups.items()
        }
        answer = session.query(
            "SELECT b, COUNT(*), COUNT(a), SUM(a) FROM sparse WHERE k < 15 GROUP BY b"
        )
        assert len(answer) == len(recomputed) == 3  # g1, g2 and NULL
        assert {row[0]: row[1:] for row in answer} == recomputed

    def test_statements_reading_no_column_still_visit_every_row(
        self, session, sparse
    ):
        assert session.scalar("SELECT COUNT(*) FROM sparse") == 30
        assert session.query("SELECT 7 FROM sparse WHERE 1 = 1") == [(7,)] * 30
        assert session.execute("UPDATE sparse SET c = 1.5").rows_affected == 30
        assert session.execute("DELETE FROM sparse").rows_affected == 30

    def test_joined_tables_sharing_column_names(self, session):
        session.execute(
            "CREATE TABLE l (id INTEGER PRIMARY KEY, v INTEGER, tag CHAR(4), "
            "only_l FLOAT)"
        )
        session.execute(
            "CREATE TABLE r (id INTEGER PRIMARY KEY, tag CHAR(4), v INTEGER, "
            "only_r CHAR(6))"
        )
        session.execute(
            "INSERT INTO l VALUES (1, 10, 'a', 0.5), (2, NULL, 'b', 1.5), "
            "(3, 30, NULL, NULL)"
        )
        session.execute(
            "INSERT INTO r VALUES (1, 'x', 111, 'one'), (2, 'y', 222, NULL), "
            "(3, NULL, NULL, 'three')"
        )
        # Bare names read the right-most table that has them.
        assert session.query(
            "SELECT v, tag, only_l, only_r FROM l JOIN r ON l.id = r.id ORDER BY only_r"
        ) == [(111, "x", 0.5, "one"), (None, None, None, "three"), (222, "y", 1.5, None)]
        # Qualified names read their own table, wherever the columns sit.
        assert session.query(
            "SELECT a.v, b.v, a.tag, b.tag FROM l a JOIN r b ON a.id = b.id "
            "WHERE b.v > 100 OR a.v = 30"
        ) == [(10, 111, "a", "x"), (None, 222, "b", "y"), (30, None, None, None)]
        # '*' is every column of every table, in join order.
        result = session.execute(
            "SELECT * FROM l a JOIN r b ON a.id = b.id WHERE a.id = 2"
        )
        assert result.columns == ["id", "v", "tag", "only_l", "id", "tag", "v", "only_r"]
        assert result.rows == [(2, None, "b", 1.5, 2, "y", 222, None)]
        assert session.query(
            "SELECT *, b.v FROM l a JOIN r b ON a.id = b.id WHERE b.only_r = 'one'"
        ) == [(1, 10, "a", 0.5, 1, "x", 111, "one", 111)]

    def test_what_pruning_cannot_resolve_is_left_to_the_kernel(self, session):
        session.execute("CREATE TABLE empty (id INTEGER PRIMARY KEY)")
        # Nothing raises while deciding what to read ...
        assert session.query(
            "SELECT e.nope, x.id FROM empty e JOIN suppliers s "
            "ON e.id = s.supplier_id WHERE other.id = 1"
        ) == []
        # ... and a row reaching the reference gets the usual diagnostic.
        with pytest.raises(SqlAnalysisError, match="unknown column 'x.part_id'"):
            session.query("SELECT part_ref FROM parts WHERE x.part_id = 1")
        assert session.query(
            "SELECT part_ref FROM parts WHERE part_id = 3 AND (1 = 1 OR nope = 1)"
        ) == session.query("SELECT part_ref FROM parts WHERE part_id = 3")

    def test_virtual_time_and_scan_counts_are_pinned(self):
        """Host work moved; the modelled work did not.  The constants are
        what this script cost before scans were column-pruned."""
        from repro.workloads import parts_schema

        database = Database("pin")
        database.create_table(parts_schema(), auto_timestamp=True)
        insert_parts(database, 500)
        session = database.internal_session()
        start = database.clock.now
        assert session.execute(
            "UPDATE parts SET status = 'held', quantity = quantity + 1 "
            "WHERE part_ref BETWEEN 100 AND 149"
        ).rows_affected == 50
        assert session.execute(
            "DELETE FROM parts WHERE part_ref BETWEEN 300 AND 319"
        ).rows_affected == 20
        assert len(session.query(
            "SELECT status, COUNT(*), SUM(quantity) FROM parts "
            "WHERE price > 100.0 GROUP BY status"
        )) == 6
        assert database.clock.now - start == 236.75499999993394
        assert database.clock.now == 1567.8779999999194
        assert database.metrics.total("engine.table.rows_scanned") == 1480
