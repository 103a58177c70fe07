"""Property test: the emitted expression code against a reference interpreter.

``repro.sql.expressions`` compiles an AST to Python source and instantiates
it; a compiler that emits code needs an oracle that does not.  ``reference``
below is a plain tree-walking interpreter of the same language — NULLs,
three-valued logic, typed diagnostics, evaluation order — written here, in
the test, and sharing nothing with the compiler but the AST and the error
class.  Random trees over every node kind, with NULLs, mixed int / float /
str / bool operands and unknown columns, are evaluated by all three leaf
bindings and by the oracle: the outcome (value and its type, or error type
and message) must agree.

``RANDOM()`` draws from a counter, one per evaluation, so a compiler that
evaluated an operand it should have skipped (the right side of ``FALSE AND``,
an IN item after the first match) or skipped one it should have evaluated
shows up as a different value.

The two kernels built on the per-row form are held to it the same way: the
*loop form* of a predicate (``page_filter_maker``: rows in, positions kept
out — the form a WHERE crosses into a scan in) keeps the rows the per-row
form keeps and raises for the same row with the same message, ``RANDOM()``
drawing once per row in row order; and a ``row -> tuple`` kernel
(``row_maker``: a select list, a GROUP BY key) is the tuple of its items'
kernels, evaluated in the order written.

A comparison or BETWEEN with a literal operand tests the other operands'
class against the literal's, hoisted once per statement; drawn with a literal
of every class on either side, it must agree with the oracle in all three
forms and call its checked helper for exactly the rows it always did.  And
``SUM``/``AVG`` over values of every class take ints, floats and bools and
name the first value that is none of them.
"""

import itertools
import operator
import re
from operator import length_hint
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import VirtualClock
from repro.columnar import ColumnBatch, CompileBarrier
from repro.columnar.kernels import BatchBinding
from repro.engine.costs import CostModel
from repro.engine.schema import Column, TableSchema
from repro.engine.types import INTEGER
from repro.errors import SqlAnalysisError
from repro.sql import ast_nodes as ast
from repro.sql import expressions as compiler
from repro.sql.executor import Executor
from repro.sql.expressions import (
    NOW_KEY,
    RANDOM_KEY,
    USER_KEY,
    RowBinding,
    NO_SESSION,
    compile_expression,
    compile_predicate,
    evaluate,
    no_slot,
    page_filter_maker,
    referenced_columns,
    referenced_functions,
    row_maker,
)
from repro.sql.parser import parse

COMPARE = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}
ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv}


def fail(message):
    raise SqlAnalysisError(message)


def number(value):
    return isinstance(value, (int, float))


def truth(value):
    return value if isinstance(value, bool) else fail(
        f"expected a boolean condition, got {value!r}"
    )


def comparable(left, right, op):
    if not (number(left) and number(right)) and not (
        isinstance(left, str) and isinstance(right, str)
    ):
        fail(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__} using {op!r}"
        )


def like(pattern, value):
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch) for ch in pattern
    )
    return re.fullmatch(regex, value, re.DOTALL) is not None


def call(name, args, env):
    if name in ast.TIME_FUNCTIONS:
        return env[NOW_KEY] if NOW_KEY in env else fail(
            f"{name}() needs session time context (volatile function)"
        )
    if name == "RANDOM":
        return env[RANDOM_KEY]() if RANDOM_KEY in env else fail(
            "RANDOM() needs session randomness (volatile)"
        )
    if name in ast.VOLATILE_FUNCTIONS:
        return env[USER_KEY] if USER_KEY in env else fail(
            f"{name}() needs a session context (volatile)"
        )
    if name == "COALESCE":
        if not args:
            fail("COALESCE needs at least one argument")
        return next((value for value in args if value is not None), None)
    if len(args) != 1:
        fail(f"{name} takes exactly one argument, got {len(args)}")
    (value,) = args
    if value is None:
        return None
    if name in ("ABS", "ROUND"):
        if not number(value):
            fail(f"{name} requires a number, got {value!r}")
        return abs(value) if name == "ABS" else round(value)
    if name in ("UPPER", "LOWER", "LENGTH"):
        if not isinstance(value, str):
            fail(f"{name} requires a string, got {value!r}")
        return {"UPPER": str.upper, "LOWER": str.lower, "LENGTH": len}[name](value)
    fail(f"unknown function {name!r}")


def reference(expr, env):
    """What ``expr`` means over ``env``: a value, or a ``SqlAnalysisError``."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        key = expr.to_sql()
        return env[key] if key in env else fail(f"unknown column {key!r}")
    if isinstance(expr, ast.BinaryOp) and expr.op in ("AND", "OR"):
        decides = expr.op == "OR"  # the value that settles it alone
        left = reference(expr.left, env)
        if left is decides:
            return decides
        right = reference(expr.right, env)
        if right is decides:
            return decides
        if left is None or right is None:
            return None
        return truth(left) and truth(right) if expr.op == "AND" else (
            truth(left) or truth(right)
        )
    if isinstance(expr, ast.BinaryOp):
        left, right = reference(expr.left, env), reference(expr.right, env)
        if left is None or right is None:
            return None
        if expr.op in COMPARE:
            comparable(left, right, expr.op)
            return COMPARE[expr.op](left, right)
        if not number(left) or not number(right):
            fail(f"arithmetic {expr.op!r} requires numbers, got {left!r} and {right!r}")
        if expr.op == "/" and right == 0:
            fail("division by zero")
        return ARITH[expr.op](left, right)
    if isinstance(expr, ast.UnaryOp):
        value = reference(expr.operand, env)
        if value is None:
            return None
        if expr.op == "NOT":
            return not truth(value)
        return -value if number(value) else fail(
            f"unary minus requires a number, got {value!r}"
        )
    if isinstance(expr, ast.InList):
        value = reference(expr.expr, env)
        if value is None:
            return None
        saw_null = False
        for item in expr.items:
            candidate = reference(item, env)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not expr.negated
        return None if saw_null else expr.negated
    if isinstance(expr, ast.Between):
        value, low, high = (
            reference(part, env) for part in (expr.expr, expr.low, expr.high)
        )
        if value is None or low is None or high is None:
            return None
        comparable(value, low, "BETWEEN")
        comparable(value, high, "BETWEEN")
        return (low <= value <= high) is not expr.negated
    if isinstance(expr, ast.Like):
        value = reference(expr.expr, env)
        if value is None:
            return None
        if not isinstance(value, str):
            fail(f"LIKE requires a string, got {value!r}")
        return like(expr.pattern, value) is not expr.negated
    if isinstance(expr, ast.IsNull):
        return (reference(expr.expr, env) is None) is not expr.negated
    assert isinstance(expr, ast.FuncCall), expr
    if expr.function in ast.VOLATILE_FUNCTIONS:
        return call(expr.function, [], env)
    return call(expr.function, [reference(arg, env) for arg in expr.args], env)


# ----------------------------------------------------------------- strategies
# Trees are built by type — numeric, text and boolean sub-trees where the
# language expects them — with one operand in seven drawn from *any* type, so
# that most trees evaluate deep into themselves and the rest exercise every
# diagnostic.  (Operands drawn uniformly die at the first comparison.)
INTS, FLOATS = [0, 1, -2, 3, 7], [0.0, 1.5, -2.0, 3.0]
STRINGS, BOOLS = ["", "a", "ab", "Ab%", "a_b"], [True, False]
VALUES = st.sampled_from([None, *INTS, *FLOATS, *STRINGS, *BOOLS])
#: Bare columns of one type each (NULL in any) and one behind a qualifier
#: holding anything.
COLUMNS = ("i", "f", "s", "b", "n", "t.q")
ROWS = st.tuples(
    *[st.sampled_from([None, *domain]) for domain in (INTS, FLOATS, STRINGS, BOOLS)],
    st.none(),
    VALUES,
)
PATTERNS = st.sampled_from(["", "a", "a%", "%b", "_", "a_b", "%", "Ab\\%", "a.b", "[a]"])
NEGATED = st.booleans()


def leaves(values, columns, volatile):
    usual = [
        st.sampled_from([None, *values]).map(ast.Literal),
        st.sampled_from([ast.ColumnRef(name) for name in columns]),
    ]
    return st.one_of(
        *usual * 4,
        st.sampled_from(
            [ast.ColumnRef("n"), ast.ColumnRef("q", "t")]
            + [ast.FuncCall(name) for name in volatile]
        ),
    )


#: What no row can evaluate: a column not in scope, calls of the wrong arity
#: or of no known function.
REFUSED = st.sampled_from(
    [ast.ColumnRef("nope"), ast.FuncCall("NOPE", (ast.Literal(1),))]
    + [ast.FuncCall(name) for name in ("COALESCE", "ABS", "UPPER")]
    + [ast.FuncCall("ROUND", (ast.Literal(1.5), ast.Literal(2)))]
)


def function(names, *args):
    return st.builds(ast.FuncCall, st.sampled_from(names), st.tuples(*args))


def expressions(depth):
    numeric = number_leaves = leaves(INTS + FLOATS, "if", ["NOW", "RANDOM"])
    text = text_leaves = leaves(STRINGS, "s", ["SESSION_USER"])
    boolean = boolean_leaves = leaves(BOOLS, "b", ["CURRENT_TIMESTAMP"])
    for _ in range(depth):
        anything = st.one_of(*[numeric, text, boolean] * 3, REFUSED)
        n, t, b = (st.one_of(*[typed] * 6, anything) for typed in (numeric, text, boolean))
        alike = st.one_of(st.tuples(n, n, n, n), st.tuples(t, t, t, t))
        numeric = st.one_of(
            number_leaves,
            st.builds(ast.BinaryOp, st.sampled_from(list(ARITH)), n, n),
            st.builds(ast.UnaryOp, st.just("-"), n),
            function(["ABS", "ROUND", "COALESCE"], n),
            function(["LENGTH"], t),
            function(["COALESCE"], n, n),
        )
        text = st.one_of(text_leaves, function(["UPPER", "LOWER", "COALESCE"], t))
        boolean = st.one_of(
            boolean_leaves,
            alike.flatmap(
                lambda same: st.builds(
                    ast.BinaryOp, st.sampled_from(list(COMPARE)), *map(st.just, same[:2])
                )
            ),
            st.builds(ast.BinaryOp, st.sampled_from(["AND", "OR"]), b, b),
            st.builds(ast.BinaryOp, st.sampled_from(["AND", "OR"]), b, b),
            st.builds(ast.UnaryOp, st.just("NOT"), b),
            alike.flatmap(
                lambda same: st.builds(
                    ast.InList, st.just(same[0]), st.just(same[1:]), NEGATED
                )
            ),
            alike.flatmap(
                lambda same: st.builds(ast.Between, *map(st.just, same[:3]), NEGATED)
            ),
            st.builds(ast.Like, t, PATTERNS, NEGATED),
            st.builds(ast.IsNull, anything, NEGATED),
        )
    return st.one_of(boolean, boolean, numeric, text)


EXPRESSIONS = expressions(depth=3)
FULL_SESSION = (NOW_KEY, RANDOM_KEY, USER_KEY)
SESSIONS = st.sampled_from([(), (NOW_KEY,), FULL_SESSION, FULL_SESSION, FULL_SESSION])


def environment(row, session):
    """A fresh name → value mapping; RANDOM() counts its draws from zero."""
    env = dict(zip(COLUMNS, row))
    draws = itertools.count(1)
    context = {NOW_KEY: 42.5, RANDOM_KEY: lambda: next(draws) / 4, USER_KEY: "wh"}
    env.update({key: context[key] for key in session})
    return env


def outcome(thunk):
    try:
        value = thunk()
    except (SqlAnalysisError, CompileBarrier) as exc:
        return type(exc), str(exc)
    return type(value), value


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS, ROWS, SESSIONS)
def test_every_binding_agrees_with_the_reference_interpreter(expr, row, session):
    expected = outcome(lambda: reference(expr, environment(row, session)))

    env = environment(row, session)
    assert outcome(lambda: evaluate(expr, env)) == expected

    env = environment(row, session)
    kernel = compile_expression(expr, RowBinding(COLUMNS))
    assert outcome(lambda: kernel(row, env)) == expected

    batch = ColumnBatch.from_rows([name.rpartition(".")[2] for name in COLUMNS], [row])
    by_batch = outcome(
        lambda: compile_expression(expr, BatchBinding(batch.layout, frozenset({"t"})))(
            batch.columns, 0
        )
    )
    if by_batch[0] is CompileBarrier:
        # The eager binding may refuse only what it cannot serve.
        assert (
            referenced_functions(expr) & set(ast.VOLATILE_FUNCTIONS)
            or "nope" in referenced_columns(expr)
        ), f"unexpected barrier: {by_batch[1]}"
    else:
        assert by_batch == expected


def rows_outcome(rows, evaluate_row):
    """What a row-at-a-time evaluation of ``rows`` comes to: the positions
    whose value is true, or the first error and the row it was raised on."""
    kept = []
    for at, row in enumerate(rows):
        try:
            if evaluate_row(row) is True:
                kept.append(at)
        except SqlAnalysisError as exc:
            return type(exc), str(exc), at
    return kept


@settings(max_examples=400, deadline=None)
@given(EXPRESSIONS, st.lists(ROWS, max_size=6), SESSIONS)
def test_the_loop_form_of_a_predicate_is_its_per_row_form(expr, rows, session):
    bind = RowBinding(COLUMNS)

    # The oracle: the reference interpreter, row after row, one session (so
    # one stream of RANDOM() draws) for the whole batch.
    context = environment((), session)
    expected = rows_outcome(
        rows, lambda row: reference(expr, {**dict(zip(COLUMNS, row)), **context})
    )

    context = environment((), session)
    per_row = compile_predicate(expr, bind)
    assert rows_outcome(rows, lambda row: per_row(row, context)) == expected

    context = environment((), session)
    pending = iter(rows)
    try:
        by_loop = page_filter_maker(expr, bind, no_slot)((), NO_SESSION)(pending, context)
    except SqlAnalysisError as exc:
        # The rows are taken one at a time: what is left says who raised.
        by_loop = type(exc), str(exc), len(rows) - length_hint(pending) - 1
    assert by_loop == expected


LITERALS = st.sampled_from([None, *INTS, *FLOATS, *STRINGS, *BOOLS]).map(ast.Literal)
#: Columns holding one class each, NULL always, and anything.
ANY_COLUMN = st.sampled_from([ast.ColumnRef(name) for name in "ifsbn"] + [ast.ColumnRef("q", "t")])


@st.composite
def literal_comparisons(draw):
    """A comparison with a literal of any class on either side, or a BETWEEN
    with one in any of its three places, against columns of every class."""
    if draw(st.booleans()):
        sides = [draw(LITERALS), draw(ANY_COLUMN)]
        if draw(st.booleans()):
            sides.reverse()
        return ast.BinaryOp(draw(st.sampled_from(list(COMPARE))), *sides)
    parts = [draw(st.one_of(LITERALS, ANY_COLUMN)) for _ in range(3)]
    parts[draw(st.integers(0, 2))] = draw(LITERALS)
    return ast.Between(*parts, draw(NEGATED))


def fast(operands):
    """Whether ``operands`` are what a comparison's fast path admits: of
    one class, and that class ``int``, ``float`` or ``str``."""
    classes = {type(value) for value in operands}
    return len(classes) == 1 and classes <= {int, float, str}


def assert_as_before_the_hoist(expr, columns, rows):
    """The row, batch and loop forms of a comparison or BETWEEN over
    ``rows`` (laid out as ``columns``) against the oracle — value, or error
    type and message, and in the loop form the row it is raised on — and its
    checked helper (``_compare`` / ``_between``) called for exactly the rows
    whose operands are non-NULL and not of one admitted class, as before a
    literal's class was hoisted."""
    operands = [expr.left, expr.right] if isinstance(expr, ast.BinaryOp) else [
        expr.expr, expr.low, expr.high
    ]
    helper = "_compare" if isinstance(expr, ast.BinaryOp) else "_between"
    bind = RowBinding(columns)
    per_row = compile_expression(expr, bind)
    batch = ColumnBatch.from_rows([name.rpartition(".")[2] for name in columns], rows)
    by_batch = compile_expression(expr, BatchBinding(batch.layout, frozenset({"t"})))
    with mock.patch.object(
        compiler, helper, wraps=getattr(compiler, helper)
    ) as checked:
        for at, row in enumerate(rows):
            env = dict(zip(columns, row))
            values = [reference(operand, env) for operand in operands]
            expected = outcome(lambda: reference(expr, env))
            for kernel in (lambda: per_row(row), lambda: by_batch(batch.columns, at)):
                checked.reset_mock()
                assert outcome(kernel) == expected, (expr, row)
                assert checked.called == (None not in values and not fast(values)), (
                    expr, row
                )

    expected = rows_outcome(rows, lambda row: reference(expr, dict(zip(columns, row))))
    pending = iter(rows)
    try:
        by_loop = page_filter_maker(expr, bind, no_slot)((), NO_SESSION)(pending)
    except SqlAnalysisError as exc:
        by_loop = type(exc), str(exc), len(rows) - length_hint(pending) - 1
    assert by_loop == expected, expr


@settings(max_examples=400, deadline=None)
@given(literal_comparisons(), st.lists(ROWS, min_size=1, max_size=6))
def test_a_literal_admits_to_the_fast_path_only_its_own_class(expr, rows):
    assert_as_before_the_hoist(expr, COLUMNS, rows)


#: One value of each class a literal or a column value can have.
ONE_OF_EACH = [None, 3, 1.5, "ab", True]


def test_a_literal_of_each_class_meets_a_value_of_each_class():
    # Every class of literal, in every place, against every class of value
    # in every other place: no draw has to find the one pairing that matters.
    x, y = ast.ColumnRef("x"), ast.ColumnRef("y")
    literals = [ast.Literal(value) for value in ONE_OF_EACH]
    rows = list(itertools.product(ONE_OF_EACH, repeat=2))
    for op, literal in itertools.product(COMPARE, literals):
        assert_as_before_the_hoist(ast.BinaryOp(op, x, literal), ("x", "y"), rows)
        assert_as_before_the_hoist(ast.BinaryOp(op, literal, x), ("x", "y"), rows)
    for parts in itertools.product([x, y, *literals], repeat=3):
        if any(part in literals for part in parts):
            for negated in (False, True):
                between = ast.Between(*parts, negated)
                assert_as_before_the_hoist(between, ("x", "y"), rows)


class ValuesSource:
    """One column ``x`` holding any values, read through the contract of
    :mod:`repro.sql.source`: the executor's aggregates over values no typed
    engine column would store."""

    name = "v"
    schema = TableSchema("v", [Column("x", INTEGER)])

    def __init__(self, values):
        self.clock, self.costs = VirtualClock(), CostModel()
        self.rows = [(value,) for value in values]

    def table(self, name):
        return self

    def scan_values(self, columns, keep=None):
        return self.rows if keep is None else [self.rows[at] for at in keep(self.rows)]

    def index_on(self, column):
        return None


def aggregate_reference(function, values):
    values = [value for value in values if value is not None]
    if not values:
        return None
    for value in values:
        if not number(value):
            fail(f"aggregate {function} requires a number, got {value!r}")
    return sum(values) if function == "SUM" else sum(values) / len(values)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["SUM", "AVG"]),
    st.lists(st.sampled_from([None, *INTS, *FLOATS, *STRINGS, *BOOLS]), max_size=8),
)
def test_sum_and_avg_take_numbers_and_name_the_first_that_is_not(function, values):
    expected = outcome(lambda: aggregate_reference(function, values))
    statement = parse(f"SELECT {function}(x) FROM v")
    got = outcome(lambda: Executor(ValuesSource(values)).execute(statement, None).scalar())
    assert repr(got) == repr(expected)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.one_of(EXPRESSIONS, EXPRESSIONS, st.just(ast.Star())), max_size=4),
    ROWS,
    SESSIONS,
)
def test_a_row_kernel_is_the_tuple_of_its_items_kernels(items, row, session):
    bind = RowBinding(COLUMNS)

    def item_by_item(evaluate_item):
        out = []
        for item in items:
            if isinstance(item, ast.Star):
                out.extend(row)
            else:
                out.append(evaluate_item(item))
        return tuple(out)

    env = environment(row, session)
    expected = outcome(lambda: item_by_item(lambda item: reference(item, env)))

    context = environment((), session)
    kernels = {id(item): compile_expression(item, bind) for item in items}
    # By ``repr``: inside a tuple 1 == 1.0 == True, and the types matter.
    assert repr(outcome(
        lambda: item_by_item(lambda item: kernels[id(item)](row, context))
    )) == repr(expected)

    context = environment((), session)
    kernel = row_maker(items, bind, no_slot)((), NO_SESSION)
    assert repr(outcome(lambda: kernel(row, context))) == repr(expected)
