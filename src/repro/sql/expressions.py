"""The SQL expression evaluator: one compiler, three leaf bindings.

:func:`compile_expression` walks an AST **once**, emits Python source for it
and instantiates that source as **one** flat function of two arguments.
Every interior node — Kleene AND/OR, comparison, arithmetic, unary, IN,
BETWEEN, LIKE, IS NULL, scalar functions — is written exactly once, here, as
the statements it contributes.  Comparisons involving NULL yield ``None``
(unknown); a WHERE clause keeps a row only when the predicate is exactly
``True``.

Everything in the source that is not a token this compiler chose is a
**hoisted constant**: literal values, LIKE patterns, mapping keys, operator
spellings and messages reach the function as parameters of its factory
(``k0``, ``k1`` ...), never as text.  So no SQL is ever interpolated into
source, and the source is a function of the expression's *shape* and the
binding's slots alone — which is what makes the one bounded memo
(:func:`_factory`: source text → factory) hit for every statement that
differs from an earlier one only in its literals.

The emitted fast paths are *type tests* (two ints, two strings ...); what
they do not admit calls the checked helper of the node
(:func:`check_comparable`, ``_truth``, ``_arithmetic`` ...), which computes
or raises exactly as a row of that kind always did.  A literal's class is
known per statement: a comparison tests a row's value against it as a
hoisted constant, derived from the literal like a LIKE pattern's matcher.

What varies by caller is only the *binding*: the source of the two leaves
that touch the outside world (column reference, volatile function), the
kernel's parameters, and whether a node the compiler cannot express is
diagnosed lazily or eagerly.  The binding follows from the shape of the
caller's data:

* :class:`RowBinding` — ``kernel(row, context)`` over a value tuple, each
  column reference resolved to a slot at compile time (``row[3]``);
  ``context`` is the statement's session context (:data:`NOW_KEY` ...) and
  defaults to the one given at compile time, :data:`NO_SESSION` where there
  is none.  Diagnostics are **lazy**: an unknown column, a ``*``/aggregate
  in scalar position or an unknown operator compiles to a call that raises
  when a row actually reaches it.
* :class:`MappingBinding` — ``kernel(env, env)`` over a name → value
  mapping that also carries the session keys (a look-up under a hoisted
  key); the one-shot :func:`evaluate` convenience.  Lazy, like the row
  binding.
* :class:`repro.columnar.kernels.BatchBinding` — ``kernel(columns,
  position)`` over the arrays of a ``ColumnBatch`` (``cols[3][pos]``).
  Diagnostics are **eager**: the same cases raise ``CompileBarrier`` at
  compile time and the statement takes the row path.
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
Compiled = Callable[..., Any]

#: Hoists a value out of the source: takes the constant, returns its name.
Hoist = Callable[[Any], str]

#: A comparison's operands: each node, and the name its value goes by.
Operands = Sequence[tuple[ast.Expression, str]]

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
    """How emitted code reaches outside the AST: the source of its leaves."""

    #: The kernel's parameter list, as written in its ``def``.
    parameters: str

    def column(self, ref: ast.ColumnRef, hoist: Hoist) -> str: ...

    def volatile(self, name: str, hoist: Hoist) -> str: ...

    def fail(self, message: str, hoist: Hoist) -> str:
        """A node the compiler cannot express (``message`` says why)."""


class MappingBinding:
    """Leaves over a name → value mapping, passed as both arguments.

    The mapping holds each column under its written spelling (``name`` or
    ``alias.name``) next to the session keys.
    """

    parameters = "row, context=session"

    def column(self, ref: ast.ColumnRef, hoist: Hoist) -> str:
        return f"_lookup(row, {hoist(ref.to_sql())})"

    def volatile(self, name: str, hoist: Hoist) -> str:
        if name in ast.TIME_FUNCTIONS:
            return f"_now(context, {hoist(name)})"
        if name == "RANDOM":
            return "_random(context)"
        return f"_user(context, {hoist(name)})"

    def fail(self, message: str, hoist: Hoist) -> str:
        return f"_fail({hoist(message)})"


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

    def column(self, ref: ast.ColumnRef, hoist: Hoist) -> str:
        slot = self.slot(ref)
        if slot is None:
            return self.fail(f"unknown column {ref.to_sql()!r}", hoist)
        return f"row[{slot}]"


#: The binding of expressions with no column in scope (INSERT literals,
#: constant SELECT): every column reference is unknown.
CONSTANT = RowBinding(())

_MAPPING = MappingBinding()


def evaluate(expr: ast.Expression, env: Mapping[str, Any]) -> Any:
    """Evaluate ``expr`` once against a mapping environment."""
    return compile_expression(expr, _MAPPING)(env, env)


# ------------------------------------------------------------------ compiler
#: A compiled expression short of its literals: ``maker(values, context)``
#: closes the kernel over one statement's literal values and session context.
Maker = Callable[[Sequence[Any], Mapping[str, Any]], Compiled]

#: Which literal of a statement's shape a value stands for (None: it is
#: fixed) — :meth:`repro.sql.templates.StatementTemplate.slot`.
Slot = Callable[[Any], "int | None"]


def no_slot(value: Any) -> None:
    """The :data:`Slot` of a statement that has no template: nothing varies."""
    return None


def compile_expression(
    expr: ast.Expression, bind: Binding, context: Mapping[str, Any] = NO_SESSION
) -> Compiled:
    """Compile ``expr`` to one function over whatever ``bind`` reads from.

    ``context`` is the session context of a call that passes none.
    """
    return expression_maker(expr, bind, no_slot)((), context)


def compile_predicate(
    where: ast.Expression | None, bind: Binding
) -> Callable[..., bool]:
    """Compile a WHERE clause to a filter (only an exact True keeps a row;
    None keeps all); a call that passes no context has none."""
    return predicate_maker(where, bind, no_slot)((), NO_SESSION)


def expression_maker(expr: ast.Expression, bind: Binding, slot: Slot) -> Maker:
    """Compile ``expr`` once for every statement of its shape.

    The source is emitted, and its factory looked up, here; what a statement
    of the shape still pays is one factory call with its own literals where
    ``slot`` says a hoisted constant is one.
    """
    if isinstance(expr, ast.Literal):  # a constant, with no source to emit
        index, value = slot(expr.value), expr.value
        if index is None:
            constant = lambda row, context=None: value  # noqa: E731
            return lambda values, context: constant
        return lambda values, context: lambda row, context=None: values[index]
    emitter = _Emitter(bind)
    return emitter.maker(emitter.emit(expr), slot)


def predicate_maker(
    where: ast.Expression | None, bind: Binding, slot: Slot
) -> Maker:
    """:func:`compile_predicate`, once for every statement of the shape."""
    if where is None:
        keep_all = lambda row, context=None: True  # noqa: E731
        return lambda values, context: keep_all
    emitter = _Emitter(bind)
    return emitter.maker(f"{emitter.emit(where)} is True", slot)


def page_filter_maker(where: ast.Expression | None, bind: Binding, slot: Slot) -> Maker:
    """The *loop form* of :func:`predicate_maker`: the same statements, run
    for each row of an iterable inside one function.

    ``filter(rows)`` returns the ascending positions of the rows the WHERE
    keeps, taking the rows in order and one at a time, so it raises for the
    row, and with the message, the per-row form does.  This is the form in
    which a WHERE crosses into a scan
    (:data:`repro.engine.table.PageFilter`): no Python call per record.
    No WHERE is no filter: ``None``, which a scan takes for "keep all".
    ``bind`` must be a :class:`RowBinding`.
    """
    if where is None:
        return lambda values, context: None  # type: ignore[return-value]
    emitter = _Emitter(bind, loop=True)
    return emitter.maker(f"{emitter.emit(where)} is True", slot)


def compile_page_filter(
    where: ast.Expression | None, bind: Binding, context: Mapping[str, Any] = NO_SESSION
) -> Compiled | None:
    """:func:`page_filter_maker` for one statement with no template."""
    return page_filter_maker(where, bind, no_slot)((), context)


def compile_row(
    items: Sequence[ast.Expression],
    bind: Binding,
    context: Mapping[str, Any] = NO_SESSION,
) -> Compiled:
    """:func:`row_maker` for one statement with no template."""
    return row_maker(items, bind, no_slot)((), context)


def row_maker(items: Sequence[ast.Expression], bind: Binding, slot: Slot) -> Maker:
    """A select list, GROUP BY key, VALUES row or SET list as one
    ``row -> tuple`` kernel, once for every statement of the shape.

    The items are evaluated in the order written, each to the end before the
    next begins; a ``*`` stands for the whole row (a :class:`RowBinding`'s).
    A list made only of literals has nothing to compile: it is *read* —
    ``values[i]`` where ``slot`` says a literal is the shape's ``i``-th, the
    value as written otherwise.
    """
    if all(isinstance(item, ast.Literal) for item in items):
        fixed = [item.value for item in items]  # type: ignore[union-attr]
        found = [] if slot is no_slot else [slot(value) for value in fixed]
        slots = [(at, index) for at, index in enumerate(found) if index is not None]

        def read(values: Sequence[Any], context: Any) -> Compiled:
            cells = fixed.copy()
            for at, index in slots:
                cells[at] = values[index]
            row = tuple(cells)
            return lambda _row, _context=None: row

        return read
    emitter = _Emitter(bind)
    parts = ["*row" if isinstance(i, ast.Star) else emitter.value(i) for i in items]
    result = "(" + "".join(f"{part}, " for part in parts) + ")"
    return emitter.maker(result, slot)


def emitted_source(expr: ast.Expression, bind: Binding) -> str:
    """The source :func:`compile_expression` instantiates for ``expr``."""
    emitter = _Emitter(bind)
    return emitter.source(emitter.emit(expr))


@lru_cache(maxsize=1024)
def _factory(source: str) -> Callable[..., Compiled]:
    """Instantiate emitted ``source`` once per shape: constants → kernel."""
    scratch: dict[str, Any] = {}
    exec(source, globals(), scratch)
    return scratch["factory"]


#: SQL operator → the Python token emitted on the fast path, and the
#: operation its checked helper applies.
_COMPARISONS: dict[str, tuple[str, Callable[[Any, Any], Any]]] = {
    "=": ("==", operator.eq),
    "<>": ("!=", operator.ne),
    "<": ("<", operator.lt),
    "<=": ("<=", operator.le),
    ">": (">", operator.gt),
    ">=": (">=", operator.ge),
}
_ARITHMETIC: dict[str, tuple[str, Callable[[Any, Any], Any]]] = {
    "+": ("+", operator.add),
    "-": ("-", operator.sub),
    "*": ("*", operator.mul),
    "/": ("/", operator.truediv),
}

#: Kleene connective → (the value that decides it alone, the other one,
#: the Python connective of the checked slow path).
_LOGIC = {"AND": ("False", "True", "and"), "OR": ("True", "False", "or")}

#: The classes the emitted type tests admit: operands of one of them (the
#: same one, for a comparison) need no further check.
_SCALARS = frozenset({int, float, str})
_NUMBERS = frozenset({int, float})

#: Per depth, the indentation of a statement and of its continuation lines.
#: Python compiles no block nested deeper than 100, and a node's own
#: statements take up to two levels more: an expression whose statements
#: would sit ``_DEEPEST`` levels inside its kernel is refused (the loop form
#: sits one level further in, and refuses the same expressions).
_DEEPEST = 96
_INDENTS = [(" " * depth, "\n" + " " * depth) for depth in range(_DEEPEST + 1)]


@lru_cache(maxsize=256)
def _constant_names(count: int) -> str:
    """``, k0, k1 ...``: the factory parameters after ``session``."""
    return "".join(f", k{n}" for n in range(count))


class _Emitter:
    """One compilation: statements emitted so far, constants hoisted so far.

    ``emit`` returns an expression for a node's value, appending first the
    statements the node needs (only AND/OR and IN, whose operands are
    evaluated conditionally, need any); ``value`` names that value (a local
    ``t<n>`` or a hoisted ``k<n>``) right away, so operands are evaluated
    once, in the order written.

    With ``loop``, the statements are the body of ``for at, row in
    enumerate(rows)`` and the kernel returns the positions whose result is
    true — the loop form of a row kernel, one call per batch of rows.
    """

    __slots__ = ("_bind", "_lines", "_constants", "_loop", "_depth", "_temps")

    def __init__(self, bind: Binding, loop: bool = False) -> None:
        self._bind = bind
        self._lines: list[str] = []
        #: (value, via) per hoisted constant: the constant is ``via(value)``.
        self._constants: list[tuple[Any, Callable[[Any], Any] | None]] = []
        self._loop = loop
        self._depth = 2 + loop  # inside ``factory``, ``kernel`` and the loop
        self._temps = 0

    def hoist(self, value: Any, via: Callable[[Any], Any] | None = None) -> str:
        """Name a constant: ``value``, or ``via(value)`` if given (so that a
        constant *derived* from a literal can still be traced to it)."""
        self._constants.append((value, via))
        return f"k{len(self._constants) - 1}"

    def source(self, result: str) -> str:
        """The whole definition: the statements so far, then ``result``
        returned (for each row of the loop form: its position kept if true)."""
        if self._loop:
            opening = (
                " def kernel(rows, context=session):\n  kept = []\n"
                "  keep = kept.append\n  for at, row in enumerate(rows):\n"
            )
            self._lines.append(f"   if {result}: keep(at)\n  return kept")
        else:
            opening = f" def kernel({self._bind.parameters}):\n"
            self._lines.append(f"  return {result}")
        return (
            f"def factory(session{_constant_names(len(self._constants))}):\n"
            + opening + "\n".join(self._lines) + "\n return kernel"
        )

    def maker(self, result: str, slot: Slot) -> Maker:
        """The factory with every constant given but the shape's literals."""
        factory = _factory(self.source(result))
        varying = [
            (at, index, via)
            for at, (value, via) in enumerate(self._constants)
            if slot is not no_slot and (index := slot(value)) is not None
        ]
        constants = [
            value if via is None else via(value) for value, via in self._constants
        ]
        if not varying:
            return lambda values, context: factory(context, *constants)

        def make(values: Sequence[Any], context: Mapping[str, Any]) -> Compiled:
            given = constants.copy()
            for at, index, via in varying:
                given[at] = values[index] if via is None else via(values[index])
            return factory(context, *given)

        return make

    def _add(self, text: str) -> None:
        """Append statements (one per line) at the current indentation."""
        if self._depth - self._loop >= _DEEPEST:
            raise SqlAnalysisError("expression is nested too deeply to compile")
        indent, newline = _INDENTS[self._depth]
        self._lines.append(indent + text.replace("\n", newline))

    def _temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def value(self, expr: ast.Expression) -> str:
        source = self.emit(expr)
        if source.isidentifier():
            return source
        name = self._temp()
        self._add(f"{name} = {source}")
        return name

    def emit(self, expr: ast.Expression) -> str:
        if isinstance(expr, ast.Literal):
            return self.hoist(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self._bind.column(expr, self.hoist)
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._unary(expr)
        if isinstance(expr, ast.InList):
            return self._in_list(expr)
        if isinstance(expr, ast.Between):
            return self._between(expr)
        if isinstance(expr, ast.Like):
            return self._like(expr)
        if isinstance(expr, ast.IsNull):
            test = "is not None" if expr.negated else "is None"
            return f"({self.value(expr.expr)} {test})"
        if isinstance(expr, ast.FuncCall):
            if expr.function in ast.VOLATILE_FUNCTIONS:
                return self._bind.volatile(expr.function, self.hoist)
            args = ", ".join([self.value(arg) for arg in expr.args])
            return f"apply_scalar_function({self.hoist(expr.function)}, [{args}])"
        if isinstance(expr, ast.Star):
            message = "'*' is only valid directly in a select list"
        elif isinstance(expr, ast.Aggregate):
            message = (
                f"aggregate {expr.function} is only valid in a select list "
                "or HAVING context"
            )
        else:
            message = f"cannot evaluate expression node {type(expr).__name__}"
        return self._bind.fail(message, self.hoist)

    def _binary(self, expr: ast.BinaryOp) -> str:
        op = expr.op
        if op in _LOGIC:
            return self._logic(expr, *_LOGIC[op])
        if op in _COMPARISONS:
            token, checked = _COMPARISONS[op][0], "_compare"
        elif op in _ARITHMETIC:
            token, checked = _ARITHMETIC[op][0], "_arithmetic"
        else:
            return self._bind.fail(f"unknown binary operator {op!r}", self.hoist)
        # Both sides are evaluated before the NULL test.
        left, right = self.value(expr.left), self.value(expr.right)
        slow = f"{checked}({self.hoist(op)}, {left}, {right})"
        unknown = f"None if {left} is None or {right} is None"
        if checked == "_compare":
            return self._typed(
                ((expr.left, left), (expr.right, right)),
                f"{left} {token} {right}", unknown, slow,
            )
        nonzero = f" and {right}" if op == "/" else ""
        admitted = (
            f"{left}.__class__ in _NUMBERS and {right}.__class__ in _NUMBERS"
            + nonzero
        )
        return f"({unknown} else {left} {token} {right} if {admitted} else {slow})"

    def _typed(self, operands: Operands, fast: str, unknown: str, slow: str) -> str:
        """A comparison's three branches: ``fast`` where its operands are of
        one class in ``_SCALARS``, else ``unknown`` where one is NULL, else
        ``slow``.  Beside an operand that is not a literal, a literal's
        admitted class is hoisted (:func:`_admitted`: tested once per
        statement, not per row), and a value of that class is no NULL, so
        the type test goes first."""
        literal = [isinstance(node, ast.Literal) for node, _name in operands]
        if all(literal) or not any(literal):
            classes = " is ".join(f"{name}.__class__" for _node, name in operands)
            return f"({unknown} else {fast} if {classes} in _SCALARS else {slow})"
        classes = " is ".join(
            self.hoist(node.value, _admitted) if is_literal else f"{name}.__class__"
            for (node, name), is_literal in zip(operands, literal)
        )
        return f"({fast} if {classes} else {unknown} else {slow})"

    def _logic(self, expr: ast.BinaryOp, decides: str, other: str, word: str) -> str:
        # ``a AND b AND c`` leans left: walk that spine in a loop, so a long
        # chain costs neither recursion here nor indentation in the source.
        spine, first = [expr], expr.left
        while isinstance(first, ast.BinaryOp) and first.op == expr.op:
            spine.append(first)
            first = first.left
        out = self.value(first)
        for node in reversed(spine):
            # The right side is not evaluated when the left decides alone
            # (AND: False), and is when the left is NULL.
            left, out = out, self._temp()
            self._add(f"if {left} is {decides}: {out} = {decides}\nelse:")
            self._depth += 1
            right = self.value(node.right)
            self._add(
                f"if {right} is {decides}: {out} = {decides}\n"
                f"elif {left} is {other} and {right} is {other}: {out} = {other}\n"
                f"elif {left} is None or {right} is None: {out} = None\n"
                f"else: {out} = _truth({left}) {word} _truth({right})"
            )
            self._depth -= 1
        return out

    def _unary(self, expr: ast.UnaryOp) -> str:
        if expr.op == "NOT":
            inner = self.value(expr.operand)
            return (
                f"(False if {inner} is True else True if {inner} is False "
                f"else None if {inner} is None else not _truth({inner}))"
            )
        if expr.op == "-":
            inner = self.value(expr.operand)
            return (
                f"(None if {inner} is None else -{inner} "
                f"if {inner}.__class__ in _NUMBERS else _negate({inner}))"
            )
        return self._bind.fail(f"unknown unary operator {expr.op!r}", self.hoist)

    def _in_list(self, expr: ast.InList) -> str:
        # A one-pass ``while`` so that the first match can ``break``: the
        # items after it are not evaluated.  NULL subject, or no match and a
        # NULL item, leave the answer unknown.
        subject, out, saw_null = self.value(expr.expr), self._temp(), self._temp()
        self._add(
            f"{out} = None\n"
            f"if {subject} is not None:\n"
            f" {saw_null} = False\n"
            f" while True:"
        )
        self._depth += 2
        for item in expr.items:
            candidate = self.value(item)
            self._add(
                f"if {candidate} is None: {saw_null} = True\n"
                f"elif {candidate} == {subject}: {out} = {not expr.negated}; break"
            )
        self._add(f"if not {saw_null}: {out} = {bool(expr.negated)}\nbreak")
        self._depth -= 2
        return out

    def _between(self, expr: ast.Between) -> str:
        subject, low, high = (
            self.value(expr.expr), self.value(expr.low), self.value(expr.high)
        )
        negation = "not " if expr.negated else ""
        return self._typed(
            ((expr.expr, subject), (expr.low, low), (expr.high, high)),
            f"{negation}({low} <= {subject} <= {high})",
            f"None if {subject} is None or {low} is None or {high} is None",
            f"{negation}_between({subject}, {low}, {high})",
        )

    def _like(self, expr: ast.Like) -> str:
        subject = self.value(expr.expr)
        match = self.hoist(expr.pattern, _like_matcher)
        test = "is None" if expr.negated else "is not None"
        return (
            f"(None if {subject} is None else {match}({subject}) {test} "
            f"if {subject}.__class__ is str "
            f"else _like({match}, {subject}, {bool(expr.negated)}))"
        )


class _Unadmitted:
    """The class no value has: what a NULL or ``bool`` literal admits."""


def _admitted(value: Any) -> type:
    """The class a literal admits to a comparison's fast path: its own if
    it is one of ``_SCALARS``, else none."""
    return value.__class__ if value.__class__ in _SCALARS else _Unadmitted


def _like_matcher(pattern: str) -> Callable[[str], Any]:
    return _like_regex(pattern).match


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


# ---------------------------------------------------- what emitted code calls
# The checked form of each node: what a fast path's type test does not admit
# lands here, and is computed or refused as it always was.
def _lookup(env: Mapping[str, Any], key: str) -> Any:
    try:
        return env[key]
    except KeyError:
        raise SqlAnalysisError(f"unknown column {key!r}") from None


def _now(context: Mapping[str, Any], name: str) -> Any:
    if NOW_KEY not in context:
        raise SqlAnalysisError(
            f"{name}() needs session time context (volatile function)"
        )
    return context[NOW_KEY]


def _random(context: Mapping[str, Any]) -> Any:
    draw = context.get(RANDOM_KEY)
    if draw is None:
        raise SqlAnalysisError("RANDOM() needs session randomness (volatile)")
    return draw()


def _user(context: Mapping[str, Any], name: str) -> Any:
    value = context.get(USER_KEY)
    if value is None:
        raise SqlAnalysisError(f"{name}() needs a session context (volatile)")
    return value


def _fail(message: str) -> Any:
    raise SqlAnalysisError(message)


def _compare(op: str, left: Any, right: Any) -> bool:
    check_comparable(left, right, op)
    return _COMPARISONS[op][1](left, right)


def _arithmetic(op: str, left: Any, right: Any) -> Any:
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise SqlAnalysisError(
            f"arithmetic {op!r} requires numbers, got {left!r} and {right!r}"
        )
    if op == "/" and right == 0:
        raise SqlAnalysisError("division by zero")
    return _ARITHMETIC[op][1](left, right)


def _negate(value: Any) -> Any:
    if not isinstance(value, (int, float)):
        raise SqlAnalysisError(f"unary minus requires a number, got {value!r}")
    return -value


def _between(value: Any, low: Any, high: Any) -> bool:
    check_comparable(value, low, "BETWEEN")
    check_comparable(value, high, "BETWEEN")
    return low <= value <= high


def _like(match: Callable[[str], Any], value: Any, negated: bool) -> bool:
    if not isinstance(value, str):
        raise SqlAnalysisError(f"LIKE requires a string, got {value!r}")
    matched = match(value) is not None
    return (not matched) if negated else matched


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
    a named column ``columns`` lacks or a column named twice raises the
    caller's ``mismatch`` error when the first row is arranged.
    """
    positional = stmt.columns is None
    names: Sequence[str] = columns if stmt.columns is None else stmt.columns
    unknown = [] if positional else sorted(set(names) - set(columns))
    twice = _listed_twice(names)

    def arrange(values: tuple[Any, ...]) -> tuple[Any, ...]:
        if unknown:
            raise mismatch(f"INSERT names unknown columns {unknown} of {stmt.table!r}")
        if twice is not None:
            raise mismatch(f"column {twice!r} listed twice in INSERT")
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
) -> Callable[[Any], Iterator[tuple[Any, ...]]]:
    """Compile the literal rows of ``stmt``.

    The result maps a context (the second kernel argument) to the rows,
    evaluated one at a time and arranged in ``columns`` order.
    """
    return insert_rows_maker(stmt, columns, mismatch, CONSTANT, no_slot)(())


def insert_rows_maker(
    stmt: ast.InsertStmt,
    columns: Sequence[str],
    mismatch: Callable[[str], Exception],
    bind: Binding,
    slot: Slot,
) -> Callable[[Sequence[Any]], Callable[[Any], Iterator[tuple[Any, ...]]]]:
    """:func:`compile_insert_rows`, once for every statement of the shape:
    maps a statement's literal values to its rows function."""
    arrange = insert_arranger(stmt, columns, mismatch)
    makers = [row_maker(expr_row, bind, slot) for expr_row in stmt.rows]

    def make(values: Sequence[Any]) -> Callable[[Any], Iterator[tuple[Any, ...]]]:
        kernels = [maker(values, NO_SESSION) for maker in makers]

        def rows(context: Any) -> Iterator[tuple[Any, ...]]:
            for kernel in kernels:
                yield arrange(kernel((), context))

        return rows

    return make


def _listed_twice(names: Sequence[str]) -> str | None:
    """The first of ``names`` that an earlier one already is."""
    return next((n for at, n in enumerate(names) if n in names[:at]), None)


def set_list_maker(
    assignments: Sequence[ast.Assignment], bind: Binding, slot: Slot
) -> tuple[tuple[str, ...], Maker]:
    """The SET list of UPDATEs of one shape: the columns assigned, and the
    :func:`row_maker` of their new values — all computed from the row as it
    was.  A column assigned twice has no one new value: refused, per shape."""
    columns = tuple(a.column for a in assignments)
    twice = _listed_twice(columns)
    if twice is not None:
        raise SqlAnalysisError(f"column {twice!r} assigned twice")
    return columns, row_maker([a.expr for a in assignments], bind, slot)


def compile_after_image(
    stmt: ast.UpdateStmt, columns: Sequence[str]
) -> Callable[[Sequence[Any]], tuple[Any, ...]]:
    """Compile ``stmt``'s SET list to a before image → after image function.

    Every assignment reads the *before* image (SQL semantics), over rows in
    ``columns`` order with no session context.  A column is in scope by its
    bare name and qualified by the statement's table, as at the source.
    """
    bind = RowBinding(columns)
    own = {f"{stmt.table}.{name}": slot for name, slot in bind._layout.items()}
    bind._layout.update(own)
    assigned, maker = set_list_maker(stmt.assignments, bind, no_slot)
    slots = [bind.slot(ast.ColumnRef(column)) for column in assigned]
    new_values = maker((), NO_SESSION)

    def after_image(before: Sequence[Any]) -> tuple[Any, ...]:
        after = list(before)
        for slot, value in zip(slots, new_values(before, NO_SESSION)):
            if slot is not None:  # a SET column the rows lack changes nothing
                after[slot] = value
        return tuple(after)

    return after_image


# ------------------------------------------------------------- AST analysis
#: The one traversal (:mod:`repro.sql.ast_nodes`), under the name it has here.
walk = ast.walk


def referenced_columns(expr: ast.Expression) -> set[str]:
    """All column names referenced by an expression (unqualified spellings)."""
    return {node.name for node in walk(expr) if isinstance(node, ast.ColumnRef)}


def statement_columns(statement: ast.Statement) -> set[str]:
    """All column names referenced by any expression of a statement."""
    return set().union(*map(referenced_columns, ast.expressions(statement)))


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
