"""SQL abstract syntax tree.

Expression and statement nodes are plain frozen dataclasses.  Every node can
render itself back to SQL text (``to_sql``) — Op-Delta relies on this: a
captured operation is *the statement*, and transformation rules rewrite the
AST and re-render it for the warehouse schema.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import attrgetter, is_
from types import NoneType, UnionType
from typing import (
    Any,
    Callable,
    Iterator,
    NamedTuple,
    Sequence,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

_T = TypeVar("_T")


def sql_literal(value: Any) -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


# --------------------------------------------------------------- expressions
class Expression:
    """Marker base class for expression nodes."""

    def to_sql(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    value: Any
    #: Source position (character offset in the statement text) when the
    #: node came from the parser; ``None`` for synthesised nodes.  Excluded
    #: from equality/hashing so rewrites compare structurally.
    pos: int | None = field(default=None, compare=False, repr=False)

    def to_sql(self) -> str:
        return sql_literal(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str
    table: str | None = None
    pos: int | None = field(default=None, compare=False, repr=False)

    def to_sql(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic, comparison, AND/OR.  ``op`` is the SQL spelling."""

    op: str
    left: Expression
    right: Expression

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # "NOT" or "-"
    operand: Expression

    def to_sql(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.to_sql()})"
        return f"({self.op}{self.operand.to_sql()})"


@dataclass(frozen=True)
class InList(Expression):
    expr: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def to_sql(self) -> str:
        items = ", ".join(item.to_sql() for item in self.items)
        negation = "NOT " if self.negated else ""
        return f"({self.expr.to_sql()} {negation}IN ({items}))"


@dataclass(frozen=True)
class Between(Expression):
    expr: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def to_sql(self) -> str:
        negation = "NOT " if self.negated else ""
        return (
            f"({self.expr.to_sql()} {negation}BETWEEN "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )


@dataclass(frozen=True)
class Like(Expression):
    expr: Expression
    pattern: str
    negated: bool = False

    def to_sql(self) -> str:
        negation = "NOT " if self.negated else ""
        return f"({self.expr.to_sql()} {negation}LIKE {sql_literal(self.pattern)})"


@dataclass(frozen=True)
class IsNull(Expression):
    expr: Expression
    negated: bool = False

    def to_sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.expr.to_sql()} {suffix})"


AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

#: Functions whose value depends on hidden session state rather than on
#: their arguments.  The *time* functions are **pinnable**: a captured
#: statement can be replayed deterministically by substituting the capture
#: timestamp.  The rest are not recoverable after the fact.
TIME_FUNCTIONS = ("NOW", "CURRENT_TIMESTAMP")
VOLATILE_FUNCTIONS = TIME_FUNCTIONS + ("RANDOM", "SESSION_USER", "CURRENT_USER")

#: Deterministic scalar functions: value is a pure function of the inputs.
DETERMINISTIC_FUNCTIONS = ("ABS", "UPPER", "LOWER", "LENGTH", "ROUND", "COALESCE")

SCALAR_FUNCTIONS = DETERMINISTIC_FUNCTIONS + VOLATILE_FUNCTIONS


@dataclass(frozen=True)
class FuncCall(Expression):
    """A scalar function call, e.g. ``NOW()`` or ``ABS(delta)``.

    ``function`` is stored upper-cased; whether it is volatile is a property
    of the name (see :data:`VOLATILE_FUNCTIONS`), which is what the static
    analyzer keys on.
    """

    function: str
    args: tuple[Expression, ...] = ()
    pos: int | None = field(default=None, compare=False, repr=False)

    @property
    def is_volatile(self) -> bool:
        return self.function in VOLATILE_FUNCTIONS

    def to_sql(self) -> str:
        return f"{self.function}({', '.join(a.to_sql() for a in self.args)})"


@dataclass(frozen=True)
class Aggregate(Expression):
    """``COUNT(*)`` or ``SUM/AVG/MIN/MAX/COUNT(column)``."""

    function: str
    argument: ColumnRef | None  # None means COUNT(*)
    pos: int | None = field(default=None, compare=False, repr=False)

    def to_sql(self) -> str:
        arg = "*" if self.argument is None else self.argument.to_sql()
        return f"{self.function}({arg})"


@dataclass(frozen=True)
class Star(Expression):
    """``*`` in a select list."""

    def to_sql(self) -> str:
        return "*"


# ----------------------------------------------------------------- statements
@dataclass(frozen=True)
class Statement:
    """Base class for statement nodes."""

    #: Where a *parsed* statement came from — its shape's template and its
    #: own literals (:class:`repro.sql.templates.Binding`).  Only the
    #: template sets it: a synthesised or rewritten statement
    #: (``dataclasses.replace`` included) has none, because what its shape
    #: decided is no longer known to hold.
    binding: Any = field(default=None, init=False, compare=False, repr=False)

    def to_sql(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class SelectItem:
    expr: Expression
    alias: str | None = None

    def to_sql(self) -> str:
        rendered = self.expr.to_sql()
        return f"{rendered} AS {self.alias}" if self.alias else rendered


@dataclass(frozen=True)
class Join:
    table: str
    alias: str | None
    left: ColumnRef
    right: ColumnRef

    def to_sql(self) -> str:
        alias = f" {self.alias}" if self.alias else ""
        return f"JOIN {self.table}{alias} ON {self.left.to_sql()} = {self.right.to_sql()}"


@dataclass(frozen=True)
class OrderItem:
    expr: Expression
    ascending: bool = True

    def to_sql(self) -> str:
        return f"{self.expr.to_sql()} {'ASC' if self.ascending else 'DESC'}"


@dataclass(frozen=True)
class SelectStmt(Statement):
    items: tuple[SelectItem, ...]
    table: str | None = None
    alias: str | None = None
    joins: tuple[Join, ...] = ()
    where: Expression | None = None
    group_by: tuple[ColumnRef, ...] = ()
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    table_pos: int | None = field(default=None, compare=False, repr=False)

    def to_sql(self) -> str:
        parts = ["SELECT " + ", ".join(item.to_sql() for item in self.items)]
        if self.table:
            alias = f" {self.alias}" if self.alias else ""
            parts.append(f"FROM {self.table}{alias}")
        for join in self.joins:
            parts.append(join.to_sql())
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(c.to_sql() for c in self.group_by))
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass(frozen=True)
class InsertStmt(Statement):
    table: str
    columns: tuple[str, ...] | None
    rows: tuple[tuple[Expression, ...], ...] = ()
    select: SelectStmt | None = None
    table_pos: int | None = field(default=None, compare=False, repr=False)

    def to_sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        if self.select is not None:
            return f"INSERT INTO {self.table}{cols} {self.select.to_sql()}"
        rows = ", ".join(
            "(" + ", ".join(expr.to_sql() for expr in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {self.table}{cols} VALUES {rows}"


@dataclass(frozen=True)
class Assignment:
    column: str
    expr: Expression
    pos: int | None = field(default=None, compare=False, repr=False)

    def to_sql(self) -> str:
        return f"{self.column} = {self.expr.to_sql()}"


@dataclass(frozen=True)
class UpdateStmt(Statement):
    table: str
    assignments: tuple[Assignment, ...]
    where: Expression | None = None
    table_pos: int | None = field(default=None, compare=False, repr=False)

    def to_sql(self) -> str:
        sets = ", ".join(a.to_sql() for a in self.assignments)
        where = f" WHERE {self.where.to_sql()}" if self.where is not None else ""
        return f"UPDATE {self.table} SET {sets}{where}"


@dataclass(frozen=True)
class DeleteStmt(Statement):
    table: str
    where: Expression | None = None
    table_pos: int | None = field(default=None, compare=False, repr=False)

    def to_sql(self) -> str:
        where = f" WHERE {self.where.to_sql()}" if self.where is not None else ""
        return f"DELETE FROM {self.table}{where}"


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str
    type_arg: int | None = None
    not_null: bool = False
    primary_key: bool = False

    def to_sql(self) -> str:
        type_text = (
            f"{self.type_name}({self.type_arg})" if self.type_arg is not None
            else self.type_name
        )
        suffix = ""
        if self.primary_key:
            suffix = " PRIMARY KEY"
        elif self.not_null:
            suffix = " NOT NULL"
        return f"{self.name} {type_text}{suffix}"


@dataclass(frozen=True)
class CreateTableStmt(Statement):
    table: str
    columns: tuple[ColumnDef, ...]

    def to_sql(self) -> str:
        cols = ", ".join(c.to_sql() for c in self.columns)
        return f"CREATE TABLE {self.table} ({cols})"


@dataclass(frozen=True)
class CreateIndexStmt(Statement):
    name: str
    table: str
    column: str
    unique: bool = False
    kind: str = "btree"

    def to_sql(self) -> str:
        unique = "UNIQUE " if self.unique else ""
        using = f" USING {self.kind.upper()}" if self.kind != "btree" else ""
        return f"CREATE {unique}INDEX {self.name} ON {self.table} ({self.column}){using}"


@dataclass(frozen=True)
class DropTableStmt(Statement):
    table: str

    def to_sql(self) -> str:
        return f"DROP TABLE {self.table}"


@dataclass(frozen=True)
class TruncateStmt(Statement):
    table: str

    def to_sql(self) -> str:
        return f"TRUNCATE TABLE {self.table}"


@dataclass(frozen=True)
class BeginStmt(Statement):
    def to_sql(self) -> str:
        return "BEGIN"


@dataclass(frozen=True)
class CommitStmt(Statement):
    def to_sql(self) -> str:
        return "COMMIT"


@dataclass(frozen=True)
class RollbackStmt(Statement):
    def to_sql(self) -> str:
        return "ROLLBACK"


# ------------------------------------------------------------------ traversal
# What lies below a node is stated once, by the types of its own fields: a
# field typed as an expression — or an optional one, a tuple of them, a tuple
# of rows of them — holds expressions, and a field typed as a dataclass that
# holds expressions (``Assignment``, ``SelectItem``, a sub-SELECT ...) is
# looked through.  Every walker and rewriter reads the table built from that;
# only what gives a node *meaning* (``to_sql``, the parser, the evaluator's
# emitter, the checker's inference) is written per node class.
class _Field(NamedTuple):
    """One field of a node class that holds expressions."""

    name: str
    #: 0: one node; 1: a tuple of them; 2: a tuple of rows of them.
    depth: int
    optional: bool
    #: The nodes held are not expressions but dataclasses that hold them.
    through: bool


def _expression_fields(cls: type) -> tuple[_Field, ...]:
    found = []
    hints = get_type_hints(cls)
    for spec in dataclasses.fields(cls):
        hint, depth = hints[spec.name], 0
        options = [arg for arg in get_args(hint) if arg is not NoneType]
        optional = get_origin(hint) in (Union, UnionType) and len(options) == 1
        if optional:  # ``X | None``
            hint = options[0]
        while get_origin(hint) is tuple:  # ``tuple[X, ...]``
            hint, depth = get_args(hint)[0], depth + 1
        if not isinstance(hint, type):
            continue  # ``Any``: a value, not a node
        through = not issubclass(hint, Expression)
        if not through or (dataclasses.is_dataclass(hint) and _FIELDS[hint]):
            found.append(_Field(spec.name, depth, optional, through))
    return tuple(found)


def _children_reader(cls: type) -> Callable[[Any], Sequence[Expression]] | None:
    """How the children of a ``cls`` node are read; None for a leaf class."""
    fields = _FIELDS[cls]
    if not fields:
        return None
    names = [f.name for f in fields]
    if [f.depth for f in fields] == [1]:
        return attrgetter(*names)  # the one tuple, as it stands
    if len(fields) > 1 and not any(f.depth or f.optional for f in fields):
        return attrgetter(*names)
    return lambda node: list(_below(node, fields))


def _below(node: Any, fields: Sequence[_Field]) -> Iterator[Any]:
    """The nodes the ``fields`` of ``node`` hold, in the order written."""
    for name, depth, _optional, _through in fields:
        value = getattr(node, name)
        if depth == 2:
            yield from chain.from_iterable(value)
        elif depth:
            yield from value
        elif value is not None:
            yield value


class _PerClass(dict):  # type: ignore[type-arg]
    """Node class → what ``read`` makes of it: asked once per class."""

    def __init__(self, read: Callable[[type], Any]) -> None:
        self._read = read

    def __missing__(self, cls: type) -> Any:
        value = self[cls] = self._read(cls)
        return value


_FIELDS: dict[type, tuple[_Field, ...]] = _PerClass(_expression_fields)
_CHILDREN: dict[type, Any] = _PerClass(_children_reader)
for _cls in Expression.__subclasses__():  # at import, not at the first walk
    _CHILDREN[_cls]


def children(node: Expression) -> Sequence[Expression]:
    """The expressions directly below ``node``, in the order written."""
    read = _CHILDREN[node.__class__]
    return () if read is None else read(node)


def walk(expr: Expression) -> list[Expression]:
    """``expr`` and every expression below it, level by level."""
    found = [expr]
    for node in found:  # grows while it is walked
        read = _CHILDREN[node.__class__]
        if read is not None:
            found.extend(read(node))
    return found


def expressions(statement: Any) -> list[Expression]:
    """Every expression ``statement`` holds, in the order written: those of
    its SET list, select list, VALUES rows, sub-SELECT ... included."""
    found: list[Expression] = []
    for held in _FIELDS[statement.__class__]:
        for node in _below(statement, (held,)):
            found.extend(expressions(node) if held.through else (node,))
    return found


def map_expressions(statement: _T, fn: Callable[[Expression], Expression]) -> _T:
    """``statement`` with each expression :func:`expressions` lists replaced
    by ``fn`` of it — the same object when ``fn`` changed none of them."""
    node: Any = statement
    changed = {}
    for name, depth, _optional, through in _FIELDS[node.__class__]:
        old = getattr(node, name)
        new = _mapped(old, depth, partial(map_expressions, fn=fn) if through else fn)
        if new is not old:
            changed[name] = new
    return dataclasses.replace(node, **changed) if changed else statement


def _mapped(value: Any, depth: int, fn: Callable[[Any], Any]) -> Any:
    """``value`` — a node, or tuples of them ``depth`` deep — through ``fn``;
    ``value`` itself when every node came back as it went in."""
    if value is None:
        return None
    if not depth:
        return fn(value)
    new = tuple([_mapped(item, depth - 1, fn) for item in value])
    return value if all(map(is_, new, value)) else new


def rewrite(expr: Expression, fn: Callable[[Expression], Expression]) -> Expression:
    """``expr`` rebuilt bottom-up: ``fn`` sees each node after the nodes
    below it, left to right, and returns the node to stand in its place.

    A subtree ``fn`` leaves alone comes back as the same object; a node above
    a change is copied with its other fields (``pos`` included) kept.  No
    recursion: a chain of a thousand ANDs is as deep as a tree gets.
    """
    # Parents first and right to left, read backwards: children first and
    # left to right.
    order, stack = [], [expr]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children(node))
    done: dict[int, Expression] = {}
    rewritten = lambda child: done[id(child)]  # noqa: E731
    for node in reversed(order):
        done[id(node)] = fn(map_expressions(node, rewritten))
    return done[id(expr)]


def node_pos(expr: Expression | None) -> int | None:
    """The first known source position in an expression subtree.

    Rewritten/synthesised nodes have no position; this walks down to the
    nearest parsed descendant so diagnostics can still point somewhere.
    """
    stack = [] if expr is None else [expr]
    while stack:
        node = stack.pop()
        pos = getattr(node, "pos", None)
        if pos is not None:
            return pos
        stack.extend(reversed(children(node)))
    return None


#: Statements that change data (the ones Op-Delta capture cares about).
DML_STATEMENTS = (InsertStmt, UpdateStmt, DeleteStmt)


def is_dml(statement: Statement) -> bool:
    return isinstance(statement, DML_STATEMENTS)
