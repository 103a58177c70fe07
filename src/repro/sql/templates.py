"""Statement templates: what a statement's shape decides is decided once.

COTS software submits a small, fixed repertoire of statements (paper §4):
the texts differ in their literals and in nothing else.  The lexer reads a
text as ``(shape, literal values)`` (:func:`repro.sql.lexer.literal_split`);
a :class:`StatementTemplate` is what the parser made of one shape — the
statement with every INTEGER / FLOAT / STRING literal token standing as a
numbered **slot** — and it binds the literals of any other text of the shape
into a statement of that text without running the parser.

Three kinds of fact hang off a statement, and a template keeps them apart:

* **per shape** — anything read off the tree without looking at a literal's
  value: which columns are read and written, determinism, the plan an
  access path is chosen from, the source of a compiled kernel, the
  diagnostics of a type error.  Computed lazily, once, by whoever owns the
  fact (:meth:`StatementTemplate.fact`), on :attr:`StatementTemplate.statement`
  — whose literal values are slot sentinels (:meth:`StatementTemplate.slot`),
  so a fact can say *which* literal it needs without knowing what it is;
* **per statement** — what a literal's value decides: the row range of a
  footprint, the key an index is probed with, the constants a kernel closes
  over.  Recomputed from the slots (:attr:`Binding.values`) every time;
* **per catalog version** — a per-shape fact that also read a schema, an
  index list or a view catalog.  It is filed under the
  :class:`~repro.scope.Scope` of what it read and dies with it: DDL replaces
  the scope, and two databases never share one.

Source positions survive binding because the shape keeps the text between
literals as written: a node of another text of the shape sits where the
template's node sits, moved by how much longer or shorter the literals
before it are (:attr:`Binding.shifts`).
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from itertools import accumulate
from operator import sub
from typing import Any, Callable, Hashable, Sequence, TypeVar
from weakref import WeakKeyDictionary

from ..errors import SqlAnalysisError
from ..scope import Scope
from . import ast_nodes as ast
from .expressions import Slot, no_slot
from .lexer import FLOAT, INTEGER, STRING

T = TypeVar("T")

#: What stands in a template's statement for the n-th literal: a value of
#: the literal's own kind (so everything that types a literal by its value
#: keeps working) from a range reserved per kind.  No float sentinel is
#: integral, so none equals an integer one.
_INTEGER_SLOTS = 1 << 60
_FLOAT_SLOTS = float(1 << 40) + 0.5
_STRING_SLOTS = "\x00"

#: The dataclass fields that hold a source position.
_POSITION_FIELDS = frozenset({"pos", "table_pos"})

#: Rebuilds one value of a template's statement for another text of the
#: shape, from that text's (literal values, position shifts).
_Rebuild = Callable[[Sequence[Any], Sequence[int]], Any]


#: The literal kind a Python value is written as, by its class (``None`` is
#: the keyword ``NULL``; a value of any other class is not SQL's).
_KIND_OF = {int: INTEGER, float: FLOAT, str: STRING}


def slot_value(kind: str, index: int) -> Any:
    """The sentinel of slot ``index``."""
    if kind == INTEGER:
        return _INTEGER_SLOTS + index
    if kind == FLOAT:
        return _FLOAT_SLOTS + index
    return f"{_STRING_SLOTS}{index}"


def slot_text(kind: str, index: int) -> str:
    """The token text that parses to the sentinel of slot ``index``."""
    value = slot_value(kind, index)
    return value if kind == STRING else repr(value)


#: The scope of facts that read nothing but the shape.
SHAPE = Scope()


class Binding:
    """Where a parsed statement came from: its template and its own literals."""

    __slots__ = ("template", "values", "shifts", "_facts")

    def __init__(
        self, template: "StatementTemplate", values: Sequence[Any], shifts: Sequence[int]
    ) -> None:
        self.template = template
        #: The statement's literal values, in slot order.
        self.values = values
        #: ``shifts[n]``: how much further right than in the template's text
        #: everything after the first ``n`` literals sits in this one.
        self.shifts = shifts
        self._facts: dict[Hashable, Any] | None = None

    def fact(self, key: Hashable, build: Callable[[], T]) -> T:
        """A per-statement fact, worked out once for as long as the
        statement lives: every stage a captured statement passes through
        asks for the same ones.  A fact holds nothing of the statement
        itself, which holds this binding: that would be a reference cycle,
        freed only by the cyclic collector."""
        facts = self._facts
        if facts is None:
            facts = self._facts = {}
        try:
            return facts[key]
        except KeyError:
            value = facts[key] = build()
            return value

    def position(self, pos: int | None) -> int | None:
        """Where the node at ``pos`` of the template's text sits in this one."""
        if pos is None:
            return None
        return pos + self.shifts[bisect_left(self.template.starts, pos)]


class StatementTemplate:
    """One shape: its statement with slots for literals, and its facts."""

    def __init__(
        self,
        shape: str,
        statement: ast.Statement,
        kinds: Sequence[str],
        starts: Sequence[int],
        lengths: Sequence[int],
    ) -> None:
        #: The text with each literal replaced by its kind.
        self.shape = shape
        #: The parsed statement; literal values are slot sentinels.
        self.statement = statement
        self.kinds = tuple(kinds)
        #: Where each literal starts, and how long it is, in the text the
        #: template was built from.
        self.starts = tuple(starts)
        self.lengths = tuple(lengths)
        #: Parses served / trees bound / statements run from their values
        #: (:meth:`~repro.engine.session.Session.execute_prepared`) / facts
        #: built (counts only).
        self.hits = self.binds = self.runs = self.builds = 0
        self._rebuild = self._rebuilder(statement) or (lambda values, shifts: statement)
        self._facts: WeakKeyDictionary[Scope, dict[Hashable, Any]] = (
            WeakKeyDictionary()
        )

    @classmethod
    def prepared(
        cls, cells: Sequence[Any], build: Callable[[list[Any]], ast.Statement]
    ) -> "StatementTemplate":
        """The template of statements the *program* builds, not the parser.

        ``cells`` are the values of one such statement and ``build(slots)``
        writes its tree, putting ``ast.Literal(slots[i])`` where cell ``i``
        goes: the sentinel of slot ``i`` for a cell that is a literal
        (INTEGER / FLOAT / STRING by its Python class), the cell itself — a
        fixed part of the shape — for ``NULL``, which is no literal token.
        Slot ``i`` is cell ``i`` and no node has a position, so any statement
        with cells of these classes is ``bind(cells, ())``.
        """
        kinds = [_KIND_OF.get(cell.__class__) for cell in cells]
        if kinds.count(None) != list(cells).count(None):
            raise SqlAnalysisError(f"not all SQL literals or NULL: {cells!r}")
        slots = [
            cell if kind is None else slot_value(kind, index)
            for index, (cell, kind) in enumerate(zip(cells, kinds))
        ]
        statement = build(slots)
        shape = statement.to_sql()
        for slot, kind in zip(slots, kinds):
            if kind is not None:
                shape = shape.replace(ast.sql_literal(slot), kind)
        return cls(shape, statement, kinds, (), ())

    # ------------------------------------------------------------------ slots
    def slot(self, value: Any) -> int | None:
        """Which literal ``value`` — found in :attr:`statement` — stands for.

        ``None`` for anything that is no slot: ``NULL``, a value some rewrite
        put there, a name.
        """
        cls = value.__class__
        if cls is int:
            index, kind = value - _INTEGER_SLOTS, INTEGER
        elif cls is float:
            index, kind = value - _FLOAT_SLOTS, FLOAT
        elif cls is str and value[:1] == _STRING_SLOTS and value[1:].isdigit():
            index, kind = int(value[1:]), STRING
        else:
            return None
        if 0 <= index < len(self.kinds) and self.kinds[int(index)] == kind:
            return int(index) if index == int(index) else None
        return None

    # ---------------------------------------------------------------- binding
    def bind_text(self, values: Sequence[Any], lengths: Sequence[int]) -> ast.Statement:
        """The statement of another text of this shape, from its literals."""
        return self.bind(
            values, list(accumulate(map(sub, lengths, self.lengths), initial=0))
        )

    def bind(self, values: Sequence[Any], shifts: Sequence[int]) -> ast.Statement:
        self.binds += 1
        statement = self._rebuild(values, shifts)
        object.__setattr__(statement, "binding", Binding(self, values, shifts))
        return statement

    def bind_rows(self, rows: Sequence[Sequence[Any]]) -> ast.Statement:
        """The tree of a prepared statement run from ``rows`` of cells: one
        row is bound; several — an INSERT of one row of slots, array-bound —
        are one INSERT of their VALUES rows in order, a tree of no shape."""
        first, *more = [self.bind(row, ()) for row in rows]
        if not more:
            return first
        return dataclasses.replace(
            first, rows=tuple(row for each in (first, *more) for row in each.rows)
        )

    def _rebuilder(self, value: Any, field: str | None = None) -> _Rebuild | None:
        """How ``value`` differs between texts of the shape; None: it does not."""
        # A slot's literal is rebuilt directly: the commonest node, and what
        # a row of a prepared INSERT is made of.
        index = self.slot(value.value) if isinstance(value, ast.Literal) else None
        if index is not None:
            pos = value.pos
            behind = 0 if pos is None else bisect_left(self.starts, pos)
            if behind == 0:
                return lambda values, shifts: ast.Literal(values[index], pos)
            return lambda values, by: ast.Literal(values[index], pos + by[behind])
        if isinstance(value, ast.BinaryOp):
            return self._chain(value)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            names = [f.name for f in dataclasses.fields(value) if f.init]
            return self._composite(
                type(value), [(getattr(value, name), name) for name in names]
            )
        if isinstance(value, tuple):
            return self._composite(
                lambda *items: items, [(item, None) for item in value]
            )
        if field in _POSITION_FIELDS:
            behind = 0 if value is None else bisect_left(self.starts, value)
            if behind == 0:
                return None  # nothing before it varies in length
            return lambda values, shifts: value + shifts[behind]
        index = self.slot(value)
        if index is None:
            return None
        return lambda values, shifts: values[index]

    def _chain(self, top: ast.BinaryOp) -> _Rebuild | None:
        """How a chain of binary operators differs between texts: ``a AND b
        AND c`` nests down its left operands, as deep as it is long, so the
        chain is followed down them in a loop and rebuilt from the bottom up
        in one — a WHERE of a thousand conjuncts recurses no deeper than one
        of its operands."""
        spine: list[ast.BinaryOp] = []
        node: ast.Expression = top
        while isinstance(node, ast.BinaryOp):
            spine.append(node)
            node = node.left
        # Per operator, from the bottom up: it, and how its right operand
        # differs.
        steps = [(op, self._rebuilder(op.right)) for op in reversed(spine)]
        leaf = self._rebuilder(node)
        seed: ast.Expression = node
        if leaf is None:
            # Below the first operator whose right operand varies nothing
            # does: the template's own node stands there.
            varying = [at for at, (_op, right) in enumerate(steps) if right is not None]
            if not varying:
                return None
            steps = steps[varying[0]:]
            seed = steps[0][0].left

        def rebuild_chain(values: Sequence[Any], shifts: Sequence[int]) -> Any:
            built = seed if leaf is None else leaf(values, shifts)
            for op, right in steps:
                built = ast.BinaryOp(
                    op.op, built, op.right if right is None else right(values, shifts)
                )
            return built

        return rebuild_chain

    def _composite(
        self, build: Callable[..., Any], members: list[tuple[Any, str | None]]
    ) -> _Rebuild | None:
        fixed = [value for value, _field in members]
        varying = [
            (at, rebuild)
            for at, (value, field) in enumerate(members)
            if (rebuild := self._rebuilder(value, field)) is not None
        ]
        if not varying:
            return None

        def rebuild_composite(values: Sequence[Any], shifts: Sequence[int]) -> Any:
            arguments = fixed.copy()
            for at, rebuild in varying:
                arguments[at] = rebuild(values, shifts)
            return build(*arguments)

        return rebuild_composite

    # ------------------------------------------------------------------ facts
    def fact(self, scope: Scope, key: Hashable, build: Callable[[], T]) -> T:
        """The fact ``key`` of this shape under ``scope``, built on first use."""
        try:
            facts = self._facts[scope]
        except KeyError:
            facts = self._facts[scope] = {}
        try:
            return facts[key]
        except KeyError:
            self.builds += 1
            value = facts[key] = build()
            return value

    def rewritten(
        self, rewrite: Callable[[ast.Statement], ast.Statement]
    ) -> "StatementTemplate":
        """The template of ``rewrite(statement)``, slots carried over.

        For a rewrite that moves literals without reading them: the result
        binds the literals of a statement of *this* shape (its binding's
        ``values`` and ``shifts``) into the rewritten statement, and keeps the
        rewritten shape's own facts.
        """
        return StatementTemplate(
            self.shape, rewrite(self.statement), self.kinds, self.starts,
            self.lengths,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StatementTemplate({self.shape!r})"


def shaped(
    statement: ast.Statement,
    scope: Scope,
    key: Hashable,
    build: Callable[[ast.Statement, Slot], T],
) -> tuple[T, Sequence[Any]]:
    """What ``build`` makes of ``statement``'s shape, and its own literals.

    ``build(shape_statement, slot)`` must read nothing of a literal but its
    kind, and ask ``slot(value)`` which literal a value it wants later stands
    for.  For a parsed statement it runs once per shape and ``scope``, on the
    template's statement; a synthesised statement is its own shape — built
    from afresh, every value fixed, no literals to supply.
    """
    binding = statement.binding
    if binding is None:
        return build(statement, no_slot), ()
    template = binding.template
    return (
        template.fact(scope, key, lambda: build(template.statement, template.slot)),
        binding.values,
    )


def reshaped(
    statement: ast.Statement,
    scope: Scope,
    key: Hashable,
    rewrite: Callable[[ast.Statement], ast.Statement],
) -> ast.Statement:
    """``rewrite(statement)``, for a rewrite that moves literals without
    reading them: a statement with a template has its *shape* rewritten once
    per ``scope`` (:meth:`StatementTemplate.rewritten`) and its own literals
    bound into the result, so what comes back is a statement of the rewritten
    shape, with that shape's template and facts."""
    binding = statement.binding
    if binding is None:
        return rewrite(statement)
    template = binding.template
    return template.fact(scope, key, lambda: template.rewritten(rewrite)).bind(
        binding.values, binding.shifts
    )
