"""Property: prepared value-delta apply is the tree-built apply it replaced.

``tests/reference_value_apply.py`` holds what was deleted from ``src/``: the
value integrator's tree builders, the per-cell maker lists of a VALUES row
and the per-assignment maker list of a SET list.  Three comparisons:

* **prepared route ≡ tree route** on random batches — all four
  ``ChangeKind``s, runs of inserts of every length whose rows differ in where
  their NULLs are, strings with ``'`` and latin-1 bytes, ints in FLOAT
  columns, values that *equal* slot sentinels (``1 << 60``, ``"\\x001"``),
  records that do not fit the mirror (a duplicate key, a row that is not
  there): the same report, ``clock.now`` equal to the bit, the same mirror
  rows, ``statements_executed`` and WAL records — or the same error, and the
  same rolled-back state.  The prepared route runs twice, with a capture
  hook (which gets a tree bound on demand: the same ``to_sql()`` statement by
  statement as the tree route's) and without one (no tree at all).  Each run
  is on its own database built from the same draw, so the clocks start
  equal and nothing is shared;
* **a VALUES row** — read where it is all literals, one tuple kernel where it
  is not — ≡ the per-cell kernels ≡ the reference interpreter of
  ``tests/test_property_expressions.py``, templated and not;
* **a SET list** as one tuple kernel ≡ the per-assignment kernels ≡ the
  interpreter: value, error message and evaluation order (``RANDOM()``
  counts its draws), every assignment computed from the row as it *was*.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, TableSchema
from repro.engine.types import FLOAT, INTEGER, char
from repro.errors import ReproError, SqlAnalysisError
from repro.extraction.deltas import ChangeKind, DeltaBatch, DeltaRecord
from repro.sql import ast_nodes as ast
from repro.sql.expressions import (
    CONSTANT,
    RowBinding,
    compile_after_image,
    insert_rows_maker,
    no_slot,
    set_list_maker,
)
from repro.sql.templates import StatementTemplate, slot_value
from repro.warehouse import ValueDeltaIntegrator

from .reference_value_apply import (
    TreeRouteIntegrator,
    insert_rows_by_cell,
    set_list_by_assignment,
)
from .test_property_expressions import (
    COLUMNS,
    EXPRESSIONS,
    ROWS,
    SESSIONS,
    environment,
    outcome,
    reference,
)

# ------------------------------------------------------- route against route
SCHEMA = TableSchema(
    "t",
    [
        Column("k", INTEGER, nullable=False),
        Column("f", FLOAT, nullable=False),
        Column("s", char(8)),
        Column("n", INTEGER),
        Column("g", FLOAT),
    ],
    primary_key="k",
)

#: Few keys, so that records meet; two of them are INTEGER slot sentinels.
KEYS = st.sampled_from([0, 1, 2, 3, 4, 5, 1 << 60, (1 << 60) + 1])
TEXTS = st.sampled_from(
    ["", "a", "it's", "''", "\x001", "\x000", "caf\xe9", "\xa0x", "a b ", "%_"]
)
INTS = st.sampled_from([0, 1, -7, 1 << 60, (1 << 60) + 3, 2**63 - 1])
FLOATS = st.sampled_from(
    [0.0, -1.5, 2.25, float(1 << 40) + 0.5, float(1 << 40) + 1.5, 3, -4, 1 << 60]
)
CELLS = st.tuples(
    FLOATS, st.one_of(st.none(), TEXTS), st.one_of(st.none(), INTS),
    st.one_of(st.none(), FLOATS),
)
#: (key, what becomes of it — see ``records_of`` —, the row's other cells).
MOVES = st.lists(
    st.tuples(KEYS, st.integers(0, 13), st.integers(0, 9).map(bool), CELLS),
    max_size=12,
)
INITIAL = st.lists(st.tuples(KEYS, CELLS), max_size=6, unique_by=lambda r: r[0])
#: A run of insert records of fresh keys, and where in the batch it goes.
RUNS = st.tuples(st.integers(0, 12), st.lists(CELLS, max_size=5))


def records_of(initial, moves):
    """A batch over ``initial`` that mostly fits it: a key that is there is
    updated, deleted or upserted, one that is not is inserted or upserted —
    and one time in ten the other way round, which no mirror can apply."""
    state = {key: (key, *cells) for key, cells in initial}
    for key, pick, fits, cells in moves:
        after, before = (key, *cells), state.get(key)
        if pick > 10:
            kind = ChangeKind.UPSERT
        elif (before is not None) == fits:
            kind = ChangeKind.UPDATE if pick < 6 else ChangeKind.DELETE
        else:
            kind = ChangeKind.INSERT
        if kind in (ChangeKind.UPDATE, ChangeKind.DELETE) and before is None:
            before = (key, 0.0, None, None, None)  # the image of no row
        if kind is ChangeKind.DELETE:
            state.pop(key, None)
            yield DeltaRecord(kind, key, before=before)
        else:
            state[key] = after
            with_before = before if kind is ChangeKind.UPDATE else None
            yield DeltaRecord(kind, key, before=with_before, after=after)


def statements_of(records):
    """How many statements a batch is: one per run of insert records, one
    DELETE per other record and an INSERT for each with an after image."""
    count, running = 0, False
    for record in records:
        inserting = record.kind is ChangeKind.INSERT
        count += (not running) if inserting else 1 + (record.after is not None)
        running = inserting
    return count


def applied(integrator_cls, initial, records, hooked=True):
    """Everything one route leaves behind, on a database of its own."""
    database = Database("wh")
    table = database.create_table(SCHEMA)
    txn = database.begin()
    for key, cells in initial:
        table.insert(txn, (key, *cells))
    database.commit(txn)
    session = database.internal_session()
    statements = []
    if hooked:
        session.capture_hooks.append(
            lambda statement, text, _session: statements.append(
                (type(statement).__name__, text)
            )
        )
    integrator = integrator_cls(session)
    try:
        result = dataclasses.asdict(
            integrator.integrate(DeltaBatch("t", SCHEMA, list(records)))
        )
    except ReproError as exc:
        result = type(exc).__name__, str(exc)
    return {
        "failed": isinstance(result, tuple),
        "statements": statements,
        "result": repr(result),
        "clock": database.clock.now.hex(),
        "mirror": repr(sorted(table.scan_values())),
        "in_transaction": session.in_transaction,
        "statements_executed": session.statements_executed,
        "wal": repr(database.log._active),
    }


@settings(max_examples=200, deadline=None)
@given(INITIAL, MOVES, RUNS)
def test_prepared_route_is_the_tree_route(initial, moves, run):
    records = list(records_of(initial, moves))
    at, cells = run
    records[at:at] = [
        DeltaRecord(ChangeKind.INSERT, 100 + n, after=(100 + n, *row))
        for n, row in enumerate(cells)
    ]
    by_tree = applied(TreeRouteIntegrator, initial, records)
    assert applied(ValueDeltaIntegrator, initial, records) == by_tree
    bare = applied(ValueDeltaIntegrator, initial, records, hooked=False)
    assert bare == {**by_tree, "statements": []}
    if not by_tree["failed"]:
        # A run of inserts is one statement, whatever NULLs its rows hold.
        assert bare["statements_executed"] == statements_of(records)


# ------------------------------------------------------------- a VALUES row
LITERALS = st.one_of(
    st.none(), INTS, TEXTS, st.sampled_from([0.0, -1.5, float(1 << 40) + 0.5])
).map(ast.Literal)
#: Mostly rows of literals (the rows that are read), some holding expressions.
VALUE_ROWS = st.lists(
    st.one_of(
        st.lists(LITERALS, min_size=3, max_size=3),
        st.lists(LITERALS, min_size=3, max_size=3),
        st.lists(st.one_of(LITERALS, EXPRESSIONS), min_size=3, max_size=3),
    ).map(tuple),
    min_size=1, max_size=4,
).map(tuple)
TARGETS = ("a", "b", "c")
KIND_OF = {int: "INTEGER", float: "FLOAT", str: "STRING"}


def templated(statement):
    """``statement`` as a template would hold it: every INTEGER / FLOAT /
    STRING literal a slot.  Returns the template and the literals' values,
    which bind back to ``statement``."""
    values = []

    def slotted(node):
        if isinstance(node, ast.Literal):
            kind = KIND_OF.get(type(node.value))
            if kind is None:
                return node
            values.append(node.value)
            return ast.Literal(slot_value(kind, len(values) - 1))
        if isinstance(node, tuple):
            return tuple(map(slotted, node))
        if dataclasses.is_dataclass(node) and not isinstance(node, type):
            return type(node)(
                *[slotted(getattr(node, f.name)) for f in dataclasses.fields(node) if f.init]
            )
        return node

    shape = slotted(statement)
    kinds = [KIND_OF[type(v)] for v in values]
    template = StatementTemplate("", shape, kinds, (), ())
    assert template.bind(values, ()) == statement
    return template, values


def all_rows(rows_of_context, context):
    return repr(outcome(lambda: list(rows_of_context(context))))


@settings(max_examples=300, deadline=None)
@given(VALUE_ROWS, SESSIONS, st.sampled_from([None, ("c", "a", "b"), ("b", "a")]))
def test_a_values_row_is_its_cells(rows, session, named):
    statement = ast.InsertStmt("r", named, rows=rows)
    template, values = templated(statement)

    def by_interpreter():
        env = environment((), session)
        for row in rows:
            cells = tuple(reference(cell, env) for cell in row)
            if named is None:
                yield cells
            elif len(named) != len(cells):
                raise SqlAnalysisError(
                    f"INSERT names {len(named)} columns but supplies 3 values"
                )
            else:
                given_cells = dict(zip(named, cells))
                yield tuple(given_cells.get(name) for name in TARGETS)

    expected = repr(outcome(lambda: list(by_interpreter())))
    for maker in (insert_rows_maker, insert_rows_by_cell):
        fresh = maker(statement, TARGETS, SqlAnalysisError, CONSTANT, no_slot)(())
        assert all_rows(fresh, environment((), session)) == expected
        bound = maker(
            template.statement, TARGETS, SqlAnalysisError, CONSTANT, template.slot
        )(values)
        assert all_rows(bound, environment((), session)) == expected


# --------------------------------------------------------------- a SET list
#: Distinct columns (one of them not in the row), an expression each.  The
#: columns are drawn apart from the expressions: a ``unique_by`` over pairs
#: would have hypothesis render the whole expression strategy on a retry.
ASSIGNMENTS = st.builds(
    lambda columns, exprs: tuple(map(ast.Assignment, columns, exprs)),
    st.lists(st.sampled_from(["i", "f", "s", "b", "n", "gone"]), unique=True, max_size=4),
    st.lists(EXPRESSIONS, min_size=4, max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(ASSIGNMENTS, ROWS, SESSIONS)
def test_a_set_list_is_its_assignments(assignments, row, session):
    bind = RowBinding(COLUMNS)
    statement = ast.UpdateStmt("r", assignments, None)
    template, values = templated(statement)

    env = environment(row, session)
    expected = repr(outcome(
        lambda: {a.column: reference(a.expr, env) for a in assignments}
    ))
    routes = [
        (statement.assignments, no_slot, ()),
        (template.statement.assignments, template.slot, values),
    ]
    for shape, slot, literals in routes:
        context = environment((), session)
        by_assignment = set_list_by_assignment(shape, bind, slot)(literals, context)
        assert repr(outcome(lambda: by_assignment(row))) == expected

        context = environment((), session)
        columns, maker = set_list_maker(shape, bind, slot)
        new_values = maker(literals, context)
        assert repr(outcome(
            lambda: dict(zip(columns, new_values(row)))
        )) == expected

    # The after image: every assignment read the row as it was.  (Volatile
    # functions have no session there, so the oracle gets none either.)
    env = environment(row, ())

    def after_image():
        new = {a.column: reference(a.expr, env) for a in assignments}
        return tuple(new.get(name, value) for name, value in zip(COLUMNS, row))

    assert repr(outcome(lambda: compile_after_image(statement, COLUMNS)(row))) == (
        repr(outcome(after_image))
    )


def test_a_column_assigned_twice_has_no_set_list():
    twice = (
        ast.Assignment("i", ast.Literal(1)), ast.Assignment("s", ast.Literal("x")),
        ast.Assignment("i", ast.Literal(2)),
    )
    result = outcome(lambda: set_list_maker(twice, RowBinding(COLUMNS), no_slot))
    assert result == (SqlAnalysisError, "column 'i' assigned twice")
