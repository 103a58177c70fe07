"""The column-batch binding of the SQL compiler, and the kernel cache.

There is one expression compiler, :func:`repro.sql.expressions.compile_expression`;
this module binds its leaves to a :class:`~repro.columnar.batch.ColumnBatch`:
a kernel is ``(columns, position) -> value`` with every column reference
emitted as a read of its array slot (``cols[3][pos]``), so evaluating a
predicate over a batch is a tight loop of one flat function over positions.

The batch binding is **eager** where the row bindings are lazy.  A batch
carries no session context and the row path owns the diagnostics, so a
volatile function, an unknown column or qualifier, ``*``/an aggregate in
scalar position and an unknown operator all raise :class:`CompileBarrier`
at compile time, and the caller replays the statement on the row path
(which then handles or raises with the original semantics).  A barrier is
a routing decision, never an error.

Compiled kernels are facts of a statement's *shape*: they are kept on the
statement's template (:mod:`repro.sql.templates`), short of their literals,
under the version of the table they run over, and :class:`KernelCache` only
counts — so a window of statements that differ in their literals compiles
once, and nothing here grows with the number of statements seen.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Sequence

from ..scope import Scope
from ..sql import ast_nodes as ast
from ..sql import expressions
from ..sql.templates import shaped


class CompileBarrier(Exception):
    """The expression needs the row-at-a-time path (volatile, unknown...).

    Not an error: the caller routes the statement through the row path,
    which reproduces the exact row-path behaviour (including any error the
    expression would raise there).
    """


class BatchBinding:
    """Leaves over column arrays; what a batch cannot serve is a barrier.

    ``layout`` maps column names to array slots; ``qualifiers`` is the set
    of table names/aliases under which qualified references resolve to the
    same slots.
    """

    parameters = "cols, pos"

    def __init__(
        self, layout: dict[str, int], qualifiers: frozenset[str] = frozenset()
    ) -> None:
        self._layout = layout
        self._qualifiers = qualifiers

    def column(self, ref: ast.ColumnRef, hoist: expressions.Hoist) -> str:
        if ref.table is not None and ref.table not in self._qualifiers:
            raise CompileBarrier(f"unresolvable qualifier {ref.table!r}")
        try:
            slot = self._layout[ref.name]
        except KeyError:
            raise CompileBarrier(f"unknown column {ref.name!r}") from None
        return f"cols[{slot}][pos]"

    def volatile(self, name: str, hoist: expressions.Hoist) -> str:
        # NOW()/RANDOM()/user need session context the batch does not
        # carry; pinned statements never contain them, so this is the
        # barrier that routes genuinely volatile ops to the row path.
        raise CompileBarrier(f"volatile function {name}")

    def fail(self, message: str, hoist: expressions.Hoist) -> str:
        raise CompileBarrier(message)


def compile_predicate(
    where: ast.Expression | None, layout: dict[str, int]
) -> Callable[[Sequence[Sequence[Any]], int], bool]:
    """Compile an unqualified WHERE clause to a position filter (only an
    exact True keeps)."""
    return expressions.compile_predicate(where, BatchBinding(layout))


class KernelCache:
    """The counting front of the kernels kept on statement templates.

    A kernel is a fact of a statement's *shape* (and of the table it runs
    over): it is built once, short of its literals, and filed on the shape's
    template under the scope it is given — there is no store here to grow.
    A statement of the shape supplies its own literal values to the maker it
    gets back.  What this object keeps is the tally: one instance lives on
    the integrator's columnar applier and counts what was built for it
    (``compiles``) against what it found already there (``hits``).
    """

    def __init__(self) -> None:
        self.compiles = 0
        self.hits = 0

    def get(
        self,
        statement: ast.Statement,
        scope: Scope,
        key: Hashable,
        build: Callable[[Any, expressions.Slot], Any],
    ) -> tuple[Any, Sequence[Any]]:
        """``(kernels, literals)``: what ``build(shape_statement, slot)``
        made of ``statement``'s shape, and the statement's literal values.

        A :class:`CompileBarrier` from ``build`` is kept too (as the barrier
        itself) so the row-path routing decision is also made only once per
        shape; it is raised again for every statement of it.  A statement
        with no template is its own shape: built for, every time.
        """
        compiled = False

        def counted(shape: ast.Statement, slot: expressions.Slot) -> Any:
            nonlocal compiled
            compiled = True
            try:
                return build(shape, slot)
            except CompileBarrier as barrier:
                return barrier

        kernels, literals = shaped(statement, scope, key, counted)
        if compiled:
            self.compiles += 1
        else:
            self.hits += 1
        if isinstance(kernels, CompileBarrier):
            raise kernels
        return kernels, literals
