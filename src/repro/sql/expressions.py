"""The SQL expression evaluator: one compiler, three leaf bindings.

:func:`compile_expression` walks an AST **once** and returns a closure of
two arguments.  Every interior node — Kleene AND/OR, comparison,
arithmetic, unary, IN, BETWEEN, LIKE, IS NULL, scalar functions — is
written exactly once, here.  Comparisons involving NULL yield ``None``
(unknown); a WHERE clause keeps a row only when the predicate is exactly
``True``.

What varies by caller is only the *binding*: how the two leaves that touch
the outside world (column reference, volatile function) are read, and
whether a node the compiler cannot express is diagnosed lazily or eagerly.
The binding follows from the shape of the caller's data:

* :class:`RowBinding` — ``kernel(row, context)`` over a value tuple, each
  column reference resolved to a slot at compile time; ``context`` is the
  statement's session context (:data:`NOW_KEY` ...), :data:`NO_SESSION`
  where there is none.  Diagnostics are **lazy**: an unknown column, a
  ``*``/aggregate in scalar position or an unknown operator compiles to a
  closure that raises when a row actually reaches it.
* :class:`MappingBinding` — ``kernel(env, env)`` over a name → value
  mapping that also carries the session keys; the one-shot
  :func:`evaluate` convenience.  Lazy, like the row binding.
* :class:`repro.columnar.kernels.BatchBinding` — ``kernel(columns,
  position)`` over the arrays of a ``ColumnBatch``.  Diagnostics are
  **eager**: the same cases raise ``CompileBarrier`` at compile time and
  the statement takes the row path.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, Protocol, Sequence

from ..errors import SqlAnalysisError
from . import ast_nodes as ast

#: A compiled expression.  The two arguments belong to the binding.
Compiled = Callable[[Any, Any], Any]

#: Session-context keys read by volatile functions.  ``__now__`` is the
#: statement's virtual start time; ``__random__`` is a zero-argument draw
#: from the session's seeded RNG; ``__user__`` identifies the session.
#: Evaluating a volatile function without its key raises: the expression
#: genuinely cannot be computed from the row alone, which is exactly what
#: the static analyzer flags.
NOW_KEY = "__now__"
RANDOM_KEY = "__random__"
USER_KEY = "__user__"

#: The context of callers that evaluate outside any session.
NO_SESSION: Mapping[str, Any] = MappingProxyType({})


class Binding(Protocol):
    """How a compiled expression reaches outside the AST."""

    def column(self, ref: ast.ColumnRef) -> Compiled: ...

    def volatile(self, name: str) -> Compiled: ...

    def fail(self, message: str) -> Compiled:
        """A node the compiler cannot express (``message`` says why)."""


class MappingBinding:
    """Leaves over a name → value mapping, passed as both arguments.

    The mapping holds each column under its written spelling (``name`` or
    ``alias.name``) next to the session keys.
    """

    def column(self, ref: ast.ColumnRef) -> Compiled:
        key = ref.to_sql()

        def lookup(env: Mapping[str, Any], context: Any) -> Any:
            try:
                return env[key]
            except KeyError:
                raise SqlAnalysisError(f"unknown column {key!r}") from None

        return lookup

    def volatile(self, name: str) -> Compiled:
        if name in ast.TIME_FUNCTIONS:

            def now(row: Any, context: Mapping[str, Any]) -> Any:
                if NOW_KEY not in context:
                    raise SqlAnalysisError(
                        f"{name}() needs session time context (volatile function)"
                    )
                return context[NOW_KEY]

            return now
        if name == "RANDOM":

            def rand(row: Any, context: Mapping[str, Any]) -> Any:
                draw = context.get(RANDOM_KEY)
                if draw is None:
                    raise SqlAnalysisError(
                        "RANDOM() needs session randomness (volatile)"
                    )
                return draw()

            return rand

        def user(row: Any, context: Mapping[str, Any]) -> Any:
            value = context.get(USER_KEY)
            if value is None:
                raise SqlAnalysisError(
                    f"{name}() needs a session context (volatile)"
                )
            return value

        return user

    def fail(self, message: str) -> Compiled:
        def diagnose(row: Any, context: Any) -> Any:
            raise SqlAnalysisError(message)

        return diagnose


class RowBinding(MappingBinding):
    """Leaves over a row tuple: slots now, diagnostics when a row arrives.

    ``columns`` names the slots of the row, each by the spelling a
    reference to it uses (``name`` or ``alias.name``).
    """

    def __init__(self, columns: Sequence[str]) -> None:
        self._layout = {name: slot for slot, name in enumerate(columns)}

    def slot(self, ref: ast.ColumnRef) -> int | None:
        """The slot ``ref`` reads; None when it names nothing in scope."""
        return self._layout.get(ref.to_sql())

    def column(self, ref: ast.ColumnRef) -> Compiled:
        slot = self.slot(ref)
        if slot is None:
            return self.fail(f"unknown column {ref.to_sql()!r}")
        return lambda row, context: row[slot]


#: The binding of expressions with no column in scope (INSERT literals,
#: constant SELECT): every column reference is unknown.
CONSTANT = RowBinding(())

_MAPPING = MappingBinding()


def evaluate(expr: ast.Expression, env: Mapping[str, Any]) -> Any:
    """Evaluate ``expr`` once against a mapping environment."""
    return compile_expression(expr, _MAPPING)(env, env)


def is_true(value: Any) -> bool:
    """SQL WHERE semantics: only an exact True keeps the row."""
    return value is True


# ------------------------------------------------------------------ compiler
def compile_expression(expr: ast.Expression, bind: Binding) -> Compiled:
    """Compile ``expr`` to a closure over whatever ``bind`` reads from."""
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, context: value
    if isinstance(expr, ast.ColumnRef):
        return bind.column(expr)
    if isinstance(expr, ast.BinaryOp):
        return _compile_binary(expr, bind)
    if isinstance(expr, ast.UnaryOp):
        return _compile_unary(expr, bind)
    if isinstance(expr, ast.InList):
        return _compile_in_list(expr, bind)
    if isinstance(expr, ast.Between):
        return _compile_between(expr, bind)
    if isinstance(expr, ast.Like):
        return _compile_like(expr, bind)
    if isinstance(expr, ast.IsNull):
        inner = compile_expression(expr.expr, bind)
        if expr.negated:
            return lambda row, context: inner(row, context) is not None
        return lambda row, context: inner(row, context) is None
    if isinstance(expr, ast.FuncCall):
        if expr.function in ast.VOLATILE_FUNCTIONS:
            return bind.volatile(expr.function)
        name = expr.function
        args = tuple(compile_expression(arg, bind) for arg in expr.args)
        return lambda row, context: apply_scalar_function(
            name, [arg(row, context) for arg in args]
        )
    if isinstance(expr, ast.Star):
        return bind.fail("'*' is only valid directly in a select list")
    if isinstance(expr, ast.Aggregate):
        return bind.fail(
            f"aggregate {expr.function} is only valid in a select list "
            "or HAVING context"
        )
    return bind.fail(f"cannot evaluate expression node {type(expr).__name__}")


def compile_predicate(
    where: ast.Expression | None, bind: Binding
) -> Callable[[Any, Any], bool]:
    """Compile a WHERE clause to a filter (SQL ``is_true``; None keeps all)."""
    if where is None:
        return lambda row, context: True
    compiled = compile_expression(where, bind)
    return lambda row, context: compiled(row, context) is True


def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise SqlAnalysisError("division by zero")
    return left / right


_COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
}


def _compile_binary(expr: ast.BinaryOp, bind: Binding) -> Compiled:
    op = expr.op
    left = compile_expression(expr.left, bind)
    right = compile_expression(expr.right, bind)
    if op == "AND":

        def kleene_and(row: Any, context: Any) -> Any:
            lv = left(row, context)
            if lv is False:
                return False
            rv = right(row, context)
            if rv is False:
                return False
            if lv is None or rv is None:
                return None
            return _truth(lv) and _truth(rv)

        return kleene_and
    if op == "OR":

        def kleene_or(row: Any, context: Any) -> Any:
            lv = left(row, context)
            if lv is True:
                return True
            rv = right(row, context)
            if rv is True:
                return True
            if lv is None or rv is None:
                return None
            return _truth(lv) or _truth(rv)

        return kleene_or
    if op in _COMPARISONS:
        compare = _COMPARISONS[op]

        def comparison(row: Any, context: Any) -> Any:
            lv = left(row, context)
            rv = right(row, context)
            if lv is None or rv is None:
                return None
            check_comparable(lv, rv, op)
            return compare(lv, rv)

        return comparison
    if op in _ARITHMETIC:
        arith = _ARITHMETIC[op]

        def arithmetic(row: Any, context: Any) -> Any:
            lv = left(row, context)
            rv = right(row, context)
            if lv is None or rv is None:
                return None
            if not isinstance(lv, (int, float)) or not isinstance(rv, (int, float)):
                raise SqlAnalysisError(
                    f"arithmetic {op!r} requires numbers, got {lv!r} and {rv!r}"
                )
            return arith(lv, rv)

        return arithmetic
    return bind.fail(f"unknown binary operator {op!r}")


def _compile_unary(expr: ast.UnaryOp, bind: Binding) -> Compiled:
    inner = compile_expression(expr.operand, bind)
    if expr.op == "NOT":

        def negate(row: Any, context: Any) -> Any:
            value = inner(row, context)
            if value is None:
                return None
            return not _truth(value)

        return negate
    if expr.op == "-":

        def minus(row: Any, context: Any) -> Any:
            value = inner(row, context)
            if value is None:
                return None
            if not isinstance(value, (int, float)):
                raise SqlAnalysisError(f"unary minus requires a number, got {value!r}")
            return -value

        return minus
    return bind.fail(f"unknown unary operator {expr.op!r}")


def _compile_in_list(expr: ast.InList, bind: Binding) -> Compiled:
    subject = compile_expression(expr.expr, bind)
    items = tuple(compile_expression(item, bind) for item in expr.items)
    negated = expr.negated

    def in_list(row: Any, context: Any) -> Any:
        value = subject(row, context)
        if value is None:
            return None
        saw_null = False
        for item in items:
            candidate = item(row, context)
            if candidate is None:
                saw_null = True
            elif candidate == value:
                return not negated
        if saw_null:
            return None
        return negated

    return in_list


def _compile_between(expr: ast.Between, bind: Binding) -> Compiled:
    subject = compile_expression(expr.expr, bind)
    low = compile_expression(expr.low, bind)
    high = compile_expression(expr.high, bind)
    negated = expr.negated

    def between(row: Any, context: Any) -> Any:
        value = subject(row, context)
        lo = low(row, context)
        hi = high(row, context)
        if value is None or lo is None or hi is None:
            return None
        check_comparable(value, lo, "BETWEEN")
        check_comparable(value, hi, "BETWEEN")
        result = lo <= value <= hi
        return (not result) if negated else result

    return between


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> re.Pattern[str]:
    regex = ["^"]
    for ch in pattern:
        if ch == "%":
            regex.append(".*")
        elif ch == "_":
            regex.append(".")
        else:
            regex.append(re.escape(ch))
    regex.append("$")
    return re.compile("".join(regex), re.DOTALL)


def _compile_like(expr: ast.Like, bind: Binding) -> Compiled:
    subject = compile_expression(expr.expr, bind)
    pattern = _like_regex(expr.pattern)
    negated = expr.negated

    def like(row: Any, context: Any) -> Any:
        value = subject(row, context)
        if value is None:
            return None
        if not isinstance(value, str):
            raise SqlAnalysisError(f"LIKE requires a string, got {value!r}")
        matched = pattern.match(value) is not None
        return (not matched) if negated else matched

    return like


def apply_scalar_function(name: str, args: list[Any]) -> Any:
    """Apply a *pure* scalar function to already-evaluated arguments.

    Volatile functions (NOW, RANDOM, session user) never reach here — they
    read the session context and belong to the binding.
    """
    if name == "COALESCE":
        if not args:
            raise SqlAnalysisError("COALESCE needs at least one argument")
        for value in args:
            if value is not None:
                return value
        return None
    if len(args) != 1:
        raise SqlAnalysisError(f"{name} takes exactly one argument, got {len(args)}")
    value = args[0]
    if value is None:
        return None
    if name == "ABS":
        if not isinstance(value, (int, float)):
            raise SqlAnalysisError(f"ABS requires a number, got {value!r}")
        return abs(value)
    if name == "ROUND":
        if not isinstance(value, (int, float)):
            raise SqlAnalysisError(f"ROUND requires a number, got {value!r}")
        return round(value)
    if name in ("UPPER", "LOWER", "LENGTH"):
        if not isinstance(value, str):
            raise SqlAnalysisError(f"{name} requires a string, got {value!r}")
        if name == "UPPER":
            return value.upper()
        if name == "LOWER":
            return value.lower()
        return len(value)
    raise SqlAnalysisError(f"unknown function {name!r}")


def _truth(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    raise SqlAnalysisError(f"expected a boolean condition, got {value!r}")


def check_comparable(left: Any, right: Any, op: str) -> None:
    """The comparability rule: two numbers or two strings, else a typed error."""
    numeric = (int, float)
    if isinstance(left, numeric) and isinstance(right, numeric):
        return
    if isinstance(left, str) and isinstance(right, str):
        return
    raise SqlAnalysisError(
        f"cannot compare {type(left).__name__} with {type(right).__name__} using {op!r}"
    )


# --------------------------------------------------------- statement helpers
def insert_arranger(
    stmt: ast.InsertStmt,
    columns: Sequence[str],
    mismatch: Callable[[str], Exception],
) -> Callable[[tuple[Any, ...]], tuple[Any, ...]]:
    """How one row of ``stmt`` is laid out in ``columns`` order.

    A positional INSERT keeps its values as written; a column-list INSERT
    gets NULL for every column it does not name.  A row of the wrong width,
    or a named column ``columns`` lacks, raises the caller's ``mismatch``
    error when the first row is arranged.
    """
    positional = stmt.columns is None
    names: Sequence[str] = columns if stmt.columns is None else stmt.columns
    unknown = [] if positional else sorted(set(names) - set(columns))

    def arrange(values: tuple[Any, ...]) -> tuple[Any, ...]:
        if unknown:
            raise mismatch(f"INSERT names unknown columns {unknown} of {stmt.table!r}")
        if len(values) != len(names):
            raise mismatch(
                f"INSERT names {len(names)} columns but supplies {len(values)} values"
            )
        if positional:
            return values
        given = dict(zip(names, values))
        return tuple(given.get(name) for name in columns)

    return arrange


def compile_insert_rows(
    stmt: ast.InsertStmt,
    columns: Sequence[str],
    mismatch: Callable[[str], Exception],
    bind: Binding = CONSTANT,
) -> Callable[[Any], Iterator[tuple[Any, ...]]]:
    """Compile the literal rows of ``stmt``.

    The result maps a context (second kernel argument of ``bind``) to the
    rows, evaluated one at a time and arranged in ``columns`` order.
    """
    arrange = insert_arranger(stmt, columns, mismatch)
    compiled = [
        [compile_expression(expr, bind) for expr in expr_row]
        for expr_row in stmt.rows
    ]

    def rows(context: Any) -> Iterator[tuple[Any, ...]]:
        for kernels in compiled:
            yield arrange(tuple(kernel((), context) for kernel in kernels))

    return rows


def compile_after_image(
    stmt: ast.UpdateStmt, columns: Sequence[str]
) -> Callable[[Sequence[Any]], tuple[Any, ...]]:
    """Compile ``stmt``'s SET list to a before image → after image function.

    Every assignment reads the *before* image (SQL semantics), over rows in
    ``columns`` order with bare names in scope and no session context.
    """
    bind = RowBinding(columns)
    assignments = [
        (bind.slot(ast.ColumnRef(a.column)), compile_expression(a.expr, bind))
        for a in stmt.assignments
    ]

    def after_image(before: Sequence[Any]) -> tuple[Any, ...]:
        after = list(before)
        for slot, kernel in assignments:
            value = kernel(before, NO_SESSION)
            if slot is not None:  # a SET column the rows lack changes nothing
                after[slot] = value
        return tuple(after)

    return after_image


# ------------------------------------------------------------- AST analysis
def _children(node: ast.Expression) -> tuple[ast.Expression, ...]:
    """The expressions directly below ``node``."""
    if isinstance(node, (ast.ColumnRef, ast.Literal)):  # most nodes are leaves
        return ()
    if isinstance(node, ast.BinaryOp):
        return (node.left, node.right)
    if isinstance(node, ast.UnaryOp):
        return (node.operand,)
    if isinstance(node, ast.InList):
        return (node.expr, *node.items)
    if isinstance(node, ast.Between):
        return (node.expr, node.low, node.high)
    if isinstance(node, (ast.Like, ast.IsNull)):
        return (node.expr,)
    if isinstance(node, ast.FuncCall):
        return node.args
    if isinstance(node, ast.Aggregate) and node.argument is not None:
        return (node.argument,)
    return ()


def walk(expr: ast.Expression) -> list[ast.Expression]:
    """``expr`` and every expression below it."""
    found = [expr]
    for node in found:  # grows while it is walked
        found.extend(_children(node))
    return found


def referenced_columns(expr: ast.Expression) -> set[str]:
    """All column names referenced by an expression (unqualified spellings)."""
    return {node.name for node in walk(expr) if isinstance(node, ast.ColumnRef)}


def referenced_functions(expr: ast.Expression | None) -> set[str]:
    """All scalar function names invoked anywhere in an expression."""
    if expr is None:
        return set()
    return {node.function for node in walk(expr) if isinstance(node, ast.FuncCall)}


def split_conjuncts(expr: ast.Expression | None) -> list[ast.Expression]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]
