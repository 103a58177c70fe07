"""Tests for expression evaluation (SQL three-valued logic).

Every ``ev()`` call runs the expression through all three leaf bindings of
the one compiler — mapping, row slot, column batch — and checks that they
agree before handing the agreed outcome to the test.
"""

import io
import keyword
import re
import tokenize

import pytest

from repro.columnar import ColumnBatch, CompileBarrier
from repro.columnar.kernels import BatchBinding
from repro.errors import SqlAnalysisError
from repro.sql import ast_nodes as ast
from repro.sql.expressions import (
    NOW_KEY,
    RANDOM_KEY,
    USER_KEY,
    CONSTANT,
    NO_SESSION,
    MappingBinding,
    RowBinding,
    compile_after_image,
    compile_expression,
    compile_insert_rows,
    compile_predicate,
    emitted_source,
    evaluate,
    expression_maker,
    no_slot,
    referenced_columns,
    referenced_functions,
    split_conjuncts,
)
from repro.sql.parser import parse, parse_expression

SESSION_KEYS = (NOW_KEY, RANDOM_KEY, USER_KEY)


def _outcome(thunk):
    try:
        value = thunk()
    except (SqlAnalysisError, CompileBarrier) as exc:
        return type(exc), str(exc)
    return type(value), value


def three_ways(expr, env):
    """Evaluate ``expr`` on every binding; return (or raise) what they agree on.

    ``env`` maps column spellings (``name`` or ``alias.name``) to values and
    may carry the session keys.  The batch binding is eager, so it may answer
    :class:`CompileBarrier` — but only for a volatile function or a column
    that is not in scope.
    """
    keys = [key for key in env if key not in SESSION_KEYS]
    row = tuple(env[key] for key in keys)
    batch = ColumnBatch.from_rows([key.rpartition(".")[2] for key in keys], [row])
    qualifiers = frozenset(key.rpartition(".")[0] for key in keys) - {""}

    mapping = _outcome(lambda: evaluate(expr, env))
    by_slot = _outcome(lambda: compile_expression(expr, RowBinding(keys))(row, env))
    by_batch = _outcome(
        lambda: compile_expression(expr, BatchBinding(batch.layout, qualifiers))(
            batch.columns, 0
        )
    )
    assert by_slot == mapping
    if by_batch[0] is CompileBarrier:
        in_scope = {key.rpartition(".")[2] for key in keys}
        assert (
            referenced_functions(expr) & set(ast.VOLATILE_FUNCTIONS)
            or referenced_columns(expr) - in_scope
        ), f"unexpected barrier: {by_batch[1]}"
    else:
        assert by_batch == mapping
    kind, value = mapping
    if kind is SqlAnalysisError:
        raise SqlAnalysisError(value)
    return value


def ev(text, **env):
    return three_ways(parse_expression(text), env)


def keeps(text, **env):
    """Whether a WHERE of ``text`` keeps the row ``env``."""
    return compile_predicate(parse_expression(text), MappingBinding())(env, env)


class TestComparisons:
    def test_basic(self):
        assert ev("1 < 2") is True
        assert ev("2 <= 2") is True
        assert ev("3 = 3") is True
        assert ev("3 <> 4") is True
        assert ev("3 != 4") is True

    def test_strings(self):
        assert ev("'abc' < 'abd'") is True
        assert ev("name = 'x'", name="x") is True

    def test_null_yields_unknown(self):
        assert ev("a = 1", a=None) is None
        assert ev("a < 1", a=None) is None

    def test_mixed_types_rejected(self):
        with pytest.raises(SqlAnalysisError):
            ev("'a' < 1")


class TestLogic:
    def test_and_or(self):
        assert ev("1 = 1 AND 2 = 2") is True
        assert ev("1 = 2 OR 2 = 2") is True
        assert ev("1 = 2 AND 2 = 2") is False

    def test_kleene_and(self):
        assert ev("a = 1 AND 1 = 1", a=None) is None
        assert ev("a = 1 AND 1 = 2", a=None) is False

    def test_kleene_or(self):
        assert ev("a = 1 OR 1 = 1", a=None) is True
        assert ev("a = 1 OR 1 = 2", a=None) is None

    def test_not(self):
        assert ev("NOT 1 = 2") is True
        assert ev("NOT a = 1", a=None) is None

    def test_is_true_strict(self):
        # Only an exact TRUE keeps a row; UNKNOWN drops it like FALSE.
        assert keeps("a = 1", a=1) is True
        assert keeps("a = 1", a=None) is False
        assert keeps("a = 1", a=2) is False


class TestArithmetic:
    def test_operations(self):
        assert ev("2 + 3 * 4") == 14
        assert ev("10 / 4") == 2.5
        assert ev("-x", x=5) == -5

    def test_null_propagates(self):
        assert ev("a + 1", a=None) is None

    def test_division_by_zero(self):
        with pytest.raises(SqlAnalysisError):
            ev("1 / 0")

    def test_string_arithmetic_rejected(self):
        with pytest.raises(SqlAnalysisError):
            ev("'a' + 1")


class TestPredicates:
    def test_in_list(self):
        assert ev("x IN (1, 2, 3)", x=2) is True
        assert ev("x IN (1, 2, 3)", x=9) is False
        assert ev("x NOT IN (1, 2)", x=9) is True

    def test_in_with_null_member(self):
        assert ev("x IN (1, NULL)", x=9) is None
        assert ev("x IN (1, NULL)", x=1) is True

    def test_between(self):
        assert ev("x BETWEEN 1 AND 5", x=3) is True
        assert ev("x BETWEEN 1 AND 5", x=6) is False
        assert ev("x NOT BETWEEN 1 AND 5", x=6) is True

    def test_like(self):
        assert ev("s LIKE 'ab%'", s="abcdef") is True
        assert ev("s LIKE 'a_c'", s="abc") is True
        assert ev("s LIKE 'a_c'", s="abbc") is False
        assert ev("s NOT LIKE 'z%'", s="abc") is True

    def test_like_escapes_regex_chars(self):
        assert ev("s LIKE 'a.c'", s="a.c") is True
        assert ev("s LIKE 'a.c'", s="abc") is False

    def test_is_null(self):
        assert ev("a IS NULL", a=None) is True
        assert ev("a IS NOT NULL", a=None) is False
        assert ev("a IS NOT NULL", a=1) is True


class TestEnvironment:
    def test_unknown_column(self):
        with pytest.raises(SqlAnalysisError, match="unknown column"):
            ev("missing = 1")

    def test_qualified_reference(self):
        expr = parse_expression("t.col = 5")
        assert three_ways(expr, {"t.col": 5}) is True

    def test_short_circuit_skips_an_unknown_column(self):
        # Lazy diagnostics on the row side: the unknown column is only an
        # error when a row reaches it.  (The batch side barriers instead.)
        assert ev("1 = 2 AND nope = 1") is False
        assert ev("1 = 1 OR nope = 1") is True
        with pytest.raises(SqlAnalysisError, match="unknown column 'nope'"):
            ev("1 = 1 AND nope = 1")

    def test_scalar_position_diagnostics_are_lazy_too(self):
        star = ast.BinaryOp("AND", parse_expression("1 = 2"), ast.Star())
        assert evaluate(star, {}) is False
        assert compile_expression(star, RowBinding(()))((), {}) is False
        with pytest.raises(SqlAnalysisError, match="only valid directly"):
            evaluate(ast.Star(), {})
        with pytest.raises(CompileBarrier):
            compile_expression(star, BatchBinding({}))


class TestAnalysisHelpers:
    def test_referenced_columns(self):
        expr = parse_expression("a = 1 AND (b + c) > 2 OR d LIKE 'x'")
        assert referenced_columns(expr) == {"a", "b", "c", "d"}

    def test_split_conjuncts(self):
        expr = parse_expression("a = 1 AND b = 2 AND c = 3")
        assert len(split_conjuncts(expr)) == 3

    def test_split_conjuncts_keeps_or_whole(self):
        expr = parse_expression("a = 1 OR b = 2")
        assert len(split_conjuncts(expr)) == 1

    def test_split_none(self):
        assert split_conjuncts(None) == []


class TestNullEdgeCases:
    """NULL propagation corners the three-valued logic must get right."""

    def test_null_on_either_comparison_side(self):
        assert ev("1 = a", a=None) is None
        assert ev("a <> a", a=None) is None
        assert ev("a >= b", a=None, b=None) is None

    def test_null_literal_comparison(self):
        assert ev("x = NULL", x=1) is None
        assert ev("NULL = NULL") is None

    def test_null_arithmetic_propagates(self):
        assert ev("a + 1", a=None) is None
        assert ev("1 - a", a=None) is None
        assert ev("-a", a=None) is None

    def test_null_between_bounds(self):
        assert ev("x BETWEEN a AND 5", x=3, a=None) is None
        assert ev("x BETWEEN 1 AND b", x=3, b=None) is None
        assert ev("x NOT BETWEEN a AND 5", x=3, a=None) is None

    def test_null_in_not_in(self):
        # x NOT IN (..., NULL) can never be True: the NULL member might
        # equal x.
        assert ev("x NOT IN (1, NULL)", x=9) is None
        assert ev("x NOT IN (1, NULL)", x=1) is False
        assert ev("x IN (1, 2)", x=None) is None

    def test_null_like(self):
        assert ev("s LIKE 'a%'", s=None) is None
        assert ev("s NOT LIKE 'a%'", s=None) is None

    def test_not_null_is_unknown(self):
        assert ev("NOT a = 1", a=None) is None
        assert keeps("NOT a = 1", a=None) is False


class TestNestedBooleans:
    """Deep AND/OR/NOT nesting with parenthesised grouping."""

    def test_parenthesised_precedence(self):
        assert ev("(1 = 1 OR 1 = 2) AND 2 = 2") is True
        assert ev("1 = 1 OR (1 = 2 AND 2 = 3)") is True
        assert ev("(1 = 2 OR 1 = 3) AND 2 = 2") is False

    def test_and_binds_tighter_than_or(self):
        # a OR b AND c parses as a OR (b AND c).
        assert ev("1 = 1 OR 1 = 2 AND 2 = 3") is True
        assert ev("1 = 2 OR 1 = 1 AND 2 = 2") is True
        assert ev("1 = 2 OR 1 = 1 AND 2 = 3") is False

    def test_nested_unknown_propagation(self):
        # UNKNOWN AND TRUE -> UNKNOWN, then OR FALSE keeps UNKNOWN.
        assert ev("(a = 1 AND 1 = 1) OR 1 = 2", a=None) is None
        # UNKNOWN OR TRUE short-circuits to TRUE at any depth.
        assert ev("((a = 1 OR 1 = 1) AND 2 = 2)", a=None) is True
        # NOT (UNKNOWN AND FALSE) -> NOT FALSE -> TRUE.
        assert ev("NOT (a = 1 AND 1 = 2)", a=None) is True

    def test_triple_nesting(self):
        expr = "NOT ((x > 1 AND x < 5) OR (x = 9 AND NOT x = 8))"
        assert ev(expr, x=3) is False
        assert ev(expr, x=9) is False
        assert ev(expr, x=7) is True


class TestScalarFunctions:
    """Deterministic scalar functions and the volatile-context contract."""

    def test_deterministic_functions(self):
        assert ev("ABS(0 - 3)") == 3
        assert ev("UPPER('abc')") == "ABC"
        assert ev("LOWER('ABC')") == "abc"
        assert ev("LENGTH('hello')") == 5
        assert ev("ROUND(x)", x=2.6) == 3
        assert ev("COALESCE(a, b, 7)", a=None, b=None) == 7
        assert ev("COALESCE(a, 5)", a=2) == 2

    def test_null_propagation(self):
        assert ev("ABS(a)", a=None) is None
        assert ev("UPPER(s)", s=None) is None
        assert ev("COALESCE(a, b)", a=None, b=None) is None

    def test_type_errors(self):
        with pytest.raises(SqlAnalysisError):
            ev("ABS('x')")
        with pytest.raises(SqlAnalysisError):
            ev("UPPER(1)")

    def test_volatile_without_context_raises(self):
        with pytest.raises(SqlAnalysisError, match="volatile"):
            ev("NOW()")
        with pytest.raises(SqlAnalysisError, match="volatile"):
            ev("RANDOM()")
        with pytest.raises(SqlAnalysisError, match="volatile"):
            ev("SESSION_USER()")

    def test_volatile_with_session_context(self):
        env = {NOW_KEY: 42.5, RANDOM_KEY: lambda: 0.25, USER_KEY: "wh"}
        assert three_ways(parse_expression("NOW()"), env) == 42.5
        assert three_ways(parse_expression("CURRENT_TIMESTAMP()"), env) == 42.5
        assert three_ways(parse_expression("RANDOM()"), env) == 0.25
        assert three_ways(parse_expression("SESSION_USER()"), env) == "wh"

    def test_volatile_is_a_barrier_on_the_batch_binding(self):
        for text in ("NOW()", "RANDOM() < 1", "x = 1 AND SESSION_USER() = 'wh'"):
            with pytest.raises(CompileBarrier, match="volatile"):
                compile_expression(parse_expression(text), BatchBinding({"x": 0}))

    def test_referenced_functions_walker(self):
        expr = parse_expression("ABS(a) + 1 > 0 AND s LIKE 'x%' OR NOW() > 5")
        assert referenced_functions(expr) == {"ABS", "NOW"}
        assert referenced_functions(None) == set()
        nested = parse_expression("COALESCE(ROUND(RANDOM()), 0) IN (1, LENGTH('a'))")
        assert referenced_functions(nested) == {"COALESCE", "ROUND", "RANDOM", "LENGTH"}


#: Every node kind, under names and values that would be recognised in source.
EVERY_NODE = (
    "(col_qty >= 73519 AND col_qty < 73520 OR NOT (col_status LIKE 'pat%tern')) "
    "AND col_qty IN (73521, col_ref, NULL) AND col_qty NOT BETWEEN 73522 AND 73523 "
    "AND -col_qty + 73524 / 2 * 3 - 4 > ABS(col_ref) AND col_status IS NOT NULL "
    "AND COALESCE(col_status, 'lit_text') <> UPPER('lit_text')"
)
LAZY_ONLY = " AND NOW() > 0 AND RANDOM() < 1 AND SESSION_USER() = 'lit_user' AND col_nope = 1"
EVERY_COLUMN = ("col_qty", "col_status", "col_ref")

#: What emitted source may name besides keywords, temporaries (``t3``) and
#: hoisted constants (``k3``): the parameters, the classes the fast paths
#: admit and the checked helpers.
VOCABULARY = {
    "factory", "kernel", "session", "row", "context", "cols", "pos",
    "__class__", "str", "_SCALARS", "_NUMBERS",
    "apply_scalar_function", "_truth", "_compare", "_arithmetic", "_negate",
    "_between", "_like", "_lookup", "_now", "_random", "_user", "_fail",
}


def _foreign_tokens(source):
    """The tokens of ``source`` that no compiler-chosen vocabulary explains."""
    foreign, previous = [], ""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        text = token.string
        if token.type == tokenize.STRING:
            foreign.append(text)
        elif token.type == tokenize.NUMBER and previous != "[":  # a slot: row[3]
            foreign.append(text)
        elif token.type == tokenize.NAME and not (
            keyword.iskeyword(text)
            or text in VOCABULARY
            or re.fullmatch(r"[tk]\d+", text)
        ):
            foreign.append(text)
        previous = text
    return foreign


class TestEmittedCode:
    """The compiler emits source; nothing the SQL says ever appears in it."""

    @pytest.mark.parametrize(
        "bind, text",
        [
            (RowBinding(EVERY_COLUMN), EVERY_NODE + LAZY_ONLY),
            (MappingBinding(), EVERY_NODE + LAZY_ONLY),
            (BatchBinding({name: n for n, name in enumerate(EVERY_COLUMN)}), EVERY_NODE),
        ],
        ids=["row", "mapping", "batch"],
    )
    def test_source_holds_only_what_the_compiler_chose(self, bind, text):
        tree = ast.BinaryOp(
            "OR",
            parse_expression(text),
            ast.BinaryOp("~", ast.Star(), ast.Aggregate("SUM", ast.ColumnRef("col_qty")))
            if not isinstance(bind, BatchBinding)
            else ast.Literal(False),
        )
        source = emitted_source(tree, bind)
        assert _foreign_tokens(source) == []
        for text in ("7351", "pat", "lit_", "col_", "ABS", "NOW", "BETWEEN",
                     "unknown", "only valid", "<>"):
            assert text not in source, text

    def test_a_hostile_literal_emits_the_source_of_a_benign_one(self):
        bind = RowBinding(["status"])
        hostile = "' + __import__(\"os\").system(\"x\") + '"
        benign_tree = parse_expression("status = 'active'")
        hostile_tree = ast.BinaryOp("=", ast.ColumnRef("status"), ast.Literal(hostile))
        assert parse_expression("status = '" + hostile.replace("'", "''") + "'") == (
            hostile_tree
        )
        assert emitted_source(hostile_tree, bind) == emitted_source(benign_tree, bind)
        kernel = compile_expression(hostile_tree, bind)
        assert kernel((hostile,)) is True
        assert kernel(("active",)) is False

    def test_a_hostile_like_pattern_emits_the_source_of_a_benign_one(self):
        bind = RowBinding(["status"])
        pattern = "a'\"\n\\%)]#\n  b_"
        benign = ast.Like(ast.ColumnRef("status"), "act%")
        hostile = ast.Like(ast.ColumnRef("status"), pattern)
        assert emitted_source(hostile, bind) == emitted_source(benign, bind)
        kernel = compile_expression(hostile, bind)
        assert kernel(("a'\"\n\\ anything )]#\n  bX",)) is True
        assert kernel(("a'\"\n\\)]#\n  b",)) is False  # '_' needs a character

    def test_a_hostile_mapping_key_emits_the_source_of_a_benign_one(self):
        bind = MappingBinding()
        key = 'x"]; import os; row["'
        benign = ast.BinaryOp("+", ast.ColumnRef("x"), ast.Literal(1))
        hostile = ast.BinaryOp("+", ast.ColumnRef(key), ast.Literal(1))
        assert emitted_source(hostile, bind) == emitted_source(benign, bind)
        assert evaluate(hostile, {key: 41}) == 42
        with pytest.raises(SqlAnalysisError, match="unknown column"):
            evaluate(hostile, {"x": 41})

    def test_predicates_differing_in_a_literal_share_one_code_object(self):
        bind = RowBinding(["part_id", "status"])
        seven = compile_predicate(parse_expression("part_id = 7"), bind)
        eight = compile_predicate(parse_expression("part_id = 8"), bind)
        text = compile_predicate(parse_expression("part_id = 'x'"), bind)
        assert seven.__code__ is eight.__code__ is text.__code__
        assert seven is not eight
        assert (seven((7, "a")), eight((7, "a"))) == (True, False)
        # The literal's type is not in the source either: the same code
        # refuses the comparison when a row reaches it, as it always did.
        with pytest.raises(SqlAnalysisError) as refusal:
            text((7, "a"))
        assert str(refusal.value) == "cannot compare int with str using '='"
        other_shape = compile_predicate(parse_expression("status = 'x'"), bind)
        assert other_shape.__code__ is not seven.__code__

    def test_a_literal_on_its_own_is_a_constant_with_no_source(self):
        from repro.sql import expressions

        before = expressions._factory.cache_info()
        kernels = [compile_expression(ast.Literal(n), CONSTANT) for n in range(50)]
        assert [kernel(()) for kernel in kernels] == list(range(50))
        assert kernels[3]((), {NOW_KEY: 1.0}) == 3
        assert expressions._factory.cache_info() == before

    def test_the_context_given_at_compile_time_is_the_default(self):
        bind = RowBinding(["a"])
        expr = parse_expression("a < NOW()")
        kernel = expression_maker(expr, bind, no_slot)((), {NOW_KEY: 10.0})
        assert kernel((5,)) is True
        assert kernel((5,), {NOW_KEY: 1.0}) is False
        with pytest.raises(SqlAnalysisError, match="volatile"):
            compile_predicate(expr, bind)((5,))

    def test_long_chains_stay_flat_and_deep_nesting_is_refused_typed(self):
        bind = RowBinding(["a"])
        chain = " AND ".join(["a = 1"] * 400)
        assert compile_predicate(parse_expression(chain), bind)((1,)) is True
        items = ", ".join(str(n) for n in range(400))
        assert compile_predicate(parse_expression(f"a IN ({items})"), bind)((399,))
        nested = ast.Literal(True)
        for _ in range(120):
            nested = ast.BinaryOp("AND", ast.Literal(True), nested)
        with pytest.raises(SqlAnalysisError, match="nested too deeply"):
            compile_expression(nested, bind)


class TestStatementHelpers:
    """The INSERT-row and UPDATE after-image helpers every apply path shares."""

    COLUMNS = ("a", "b", "c")

    def test_insert_rows_in_column_order_with_null_for_unnamed(self):
        named = parse("INSERT INTO t (c, a) VALUES (3, 1), (2 + 4, 4)")
        rows = compile_insert_rows(named, self.COLUMNS, ValueError)
        assert list(rows(NO_SESSION)) == [(1, None, 3), (4, None, 6)]
        positional = parse("INSERT INTO t VALUES (1, NULL, 'x')")
        rows = compile_insert_rows(positional, self.COLUMNS, ValueError)
        assert list(rows(NO_SESSION)) == [(1, None, "x")]

    def test_insert_rows_read_the_session_context(self):
        stmt = parse("INSERT INTO t VALUES (1, NOW(), NOW())")
        rows = compile_insert_rows(stmt, self.COLUMNS, ValueError)
        assert list(rows({NOW_KEY: 7.5})) == [(1, 7.5, 7.5)]
        with pytest.raises(SqlAnalysisError, match="volatile"):
            list(rows(NO_SESSION))

    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO t VALUES (1, 2)",
            "INSERT INTO t (a, b) VALUES (1)",
            "INSERT INTO t (a, nope) VALUES (1, 2)",
        ],
    )
    def test_misfit_row_raises_the_callers_error_when_reached(self, sql):
        class CallersError(Exception):
            pass

        rows = compile_insert_rows(parse(sql), self.COLUMNS, CallersError)
        with pytest.raises(CallersError, match="INSERT names"):
            list(rows(NO_SESSION))

    def test_after_image_assignments_all_read_the_before_image(self):
        stmt = parse("UPDATE t SET a = b, b = a + 1 WHERE c = 0")
        after_image = compile_after_image(stmt, self.COLUMNS)
        assert after_image((1, 10, 0)) == (10, 2, 0)
        assert after_image([None, 5, 0]) == (5, None, 0)

    def test_after_image_reads_a_column_qualified_by_the_statements_table(self):
        for spelling in ("price", "parts.price"):
            stmt = parse(f"UPDATE parts SET price = {spelling} + 1 WHERE part_id = 3")
            assert compile_after_image(stmt, ["part_id", "price"])((3, 10.0)) == (
                3, 11.0,
            )
        foreign = parse("UPDATE parts SET price = suppliers.price + 1")
        with pytest.raises(SqlAnalysisError, match="unknown column 'suppliers.price'"):
            compile_after_image(foreign, ["part_id", "price"])((3, 10.0))
