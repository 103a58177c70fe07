"""The one AST traversal against the hand-written switches it replaced.

``repro.sql.ast_nodes`` derives what lies below a node from the node
dataclasses' field types; ``tests/reference_rewrites.py`` holds the deleted
per-node-class code.  Over the random trees of
``tests/test_property_expressions.py`` — as built, and as the parser reads
their text back, so that positions are in play:

* ``walk`` ≡ the reference walk: the same nodes, in the same order;
* ``rewrite(e, identity) is e``: a subtree nobody touched is not copied;
* the transformer, ``pin_time_functions`` and the checker's constant folding
  ≡ their references — the same ``to_sql()``, the same ``pos`` on every node —
  on every tree the reference accepts, and the same typed error where it
  refuses a column.

And one check that needs no reference: for a sample of every expression class
and every statement class that holds expressions, the nodes found by looking
at the *instance* (through tuples and holder dataclasses) are exactly what
``children`` / ``expressions`` report and what ``rewrite`` /
``map_expressions`` replace — the test a missing ``FuncCall`` arm fails.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings

from repro.analysis.safety import pin_time_functions
from repro.core.transform import StatementTransformer, TableMapping
from repro.errors import OpDeltaError, ReproError
from repro.semantics.checker import SchemaCatalog, SemanticChecker
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse_expression

from . import reference_rewrites as reference
from .test_property_expressions import EXPRESSIONS

IDENTITY = TableMapping("t", "w")
#: Renames four columns; ``n``, ``q`` and ``nope`` are dropped.
RENAMING = TableMapping("t", "w", {"i": "wi", "f": "wf", "s": "ws", "b": "wb"})


def spellings(expr):
    """``expr`` as drawn (no positions) and, where its text parses back to
    the same tree, as parsed (a position on every leaf and call)."""
    try:
        parsed = parse_expression(expr.to_sql())
    except ReproError:
        return [expr]
    return [expr, parsed] if parsed == expr else [expr]


def shape(expr):
    """Everything two trees must agree on: text, and class + ``pos`` per node."""
    nodes = reference.walk(expr)
    return expr.to_sql(), [(type(n), getattr(n, "pos", None)) for n in nodes]


def outcome(thunk):
    try:
        return shape(thunk())
    except OpDeltaError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_walk_is_the_reference_walk_and_identity_rewrites_nothing(expr):
    for tree in spellings(expr):
        ours, theirs = ast.walk(tree), reference.walk(tree)
        assert len(ours) == len(theirs)
        assert all(a is b for a, b in zip(ours, theirs))
        assert all(
            list(ast.children(node)) == list(reference.children(node)) for node in ours
        )
        assert ast.rewrite(tree, lambda node: node) is tree
        assert ast.node_pos(tree) == next(
            (n.pos for n in _preorder(tree) if getattr(n, "pos", None) is not None),
            None,
        )


def _preorder(expr):
    yield expr
    for child in reference.children(expr):
        yield from _preorder(child)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_transform_is_the_reference_where_the_reference_has_an_arm(expr):
    for tree in spellings(expr):
        for mapping in (IDENTITY, RENAMING):
            theirs = outcome(lambda: reference.transform_expr(tree, mapping))
            if theirs[0] is OpDeltaError and "cannot transform" in theirs[1]:
                continue  # a function call: the arm the reference never had
            transformer = StatementTransformer({"t": mapping})
            ours = outcome(
                lambda: transformer.transform(ast.DeleteStmt("t", tree)).where
            )
            assert ours == theirs


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_pin_is_the_reference(expr):
    for tree in spellings(expr):
        pinned = pin_time_functions(ast.DeleteStmt("t", tree), 7.25)
        assert shape(pinned.where) == shape(reference.pin(tree, 7.25))
        called = {n.function for n in ast.walk(tree) if isinstance(n, ast.FuncCall)}
        if not called & set(ast.TIME_FUNCTIONS):
            assert pinned.where is tree  # nothing to pin, nothing copied


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_fold_is_the_reference(expr):
    for tree in spellings(expr):
        checker, ours, theirs = SemanticChecker(SchemaCatalog()), [], []
        folded = checker._fold(tree, ours)
        expected = reference.fold(tree, lambda node: checker._try_fold(node, theirs))
        assert shape(folded) == shape(expected)
        assert ours == theirs


def test_a_long_chain_is_rewritten_without_recursion():
    chain = ast.ColumnRef("c0")
    for n in range(1, 5000):
        chain = ast.BinaryOp("AND", chain, ast.ColumnRef(f"c{n}"))
    assert ast.rewrite(chain, lambda node: node) is chain
    renamed = ast.rewrite(
        chain,
        lambda node: ast.ColumnRef("x") if node == ast.ColumnRef("c0") else node,
    )
    names = [n.name for n in ast.walk(renamed) if isinstance(n, ast.ColumnRef)]
    assert names.count("x") == 1 and "c0" not in names and len(names) == 5000
    assert ast.node_pos(chain) is None


# ------------------------------------------------- every field, by instance
def leaf(n):
    return ast.ColumnRef(f"c{n}", pos=n)


#: One instance per node class with every expression-holding field filled.
EXPRESSION_SAMPLES = [
    ast.Literal(1),
    ast.ColumnRef("c"),
    ast.BinaryOp("+", leaf(1), leaf(2)),
    ast.UnaryOp("-", leaf(1)),
    ast.InList(leaf(1), (leaf(2), leaf(3))),
    ast.Between(leaf(1), leaf(2), leaf(3)),
    ast.Like(leaf(1), "a%"),
    ast.IsNull(leaf(1)),
    ast.FuncCall("COALESCE", (leaf(1), leaf(2)), pos=9),
    ast.Aggregate("SUM", leaf(1), pos=9),
    ast.Star(),
]
SELECT = ast.SelectStmt(
    items=(ast.SelectItem(leaf(1), "a"), ast.SelectItem(leaf(2))),
    table="t",
    joins=(ast.Join("u", None, leaf(3), leaf(4)),),
    where=leaf(5),
    group_by=(leaf(6),),
    order_by=(ast.OrderItem(leaf(7)),),
)
STATEMENT_SAMPLES = [
    SELECT,
    ast.InsertStmt("t", None, rows=((leaf(10), leaf(11)), (leaf(12), leaf(13))),
                   select=SELECT),
    ast.UpdateStmt(
        "t", (ast.Assignment("a", leaf(1)), ast.Assignment("b", leaf(2))), leaf(3)
    ),
    ast.DeleteStmt("t", leaf(1)),
]
#: An annotation that names an expression class, or a dataclass holding some.
NODE_NAMES = re.compile(
    r"\b(Expression|SelectItem|Join|OrderItem|Assignment|SelectStmt|"
    + "|".join(cls.__name__ for cls in ast.Expression.__subclasses__())
    + r")\b"
)


def held(value):
    """The expressions ``value`` holds, found by looking: through tuples and
    through dataclasses that are not expressions themselves."""
    if isinstance(value, ast.Expression):
        return [value]
    if isinstance(value, tuple):
        return [node for item in value for node in held(item)]
    if dataclasses.is_dataclass(value):
        return [
            node
            for spec in dataclasses.fields(value)
            for node in held(getattr(value, spec.name))
        ]
    return []


def below(node):
    return [
        n for spec in dataclasses.fields(node) for n in held(getattr(node, spec.name))
    ]


def test_every_class_has_a_sample_with_every_expression_field_filled():
    assert {type(s) for s in EXPRESSION_SAMPLES} == set(ast.Expression.__subclasses__())
    assert {type(s) for s in STATEMENT_SAMPLES} >= set(ast.DML_STATEMENTS)
    for sample in EXPRESSION_SAMPLES + STATEMENT_SAMPLES:
        for spec in dataclasses.fields(sample):
            if NODE_NAMES.search(str(spec.type)):  # annotations are kept as text
                assert held(getattr(sample, spec.name)), (type(sample), spec.name)


@pytest.mark.parametrize("sample", EXPRESSION_SAMPLES, ids=lambda s: type(s).__name__)
def test_every_expression_field_of_a_node_is_visited_and_rewritten(sample):
    expected = below(sample)
    assert list(ast.children(sample)) == expected
    assert ast.walk(sample) == [sample, *expected]
    marked = ast.rewrite(
        sample, lambda n: ast.ColumnRef("seen") if n in expected else n
    )
    assert [n.to_sql() for n in below(marked)] == ["seen"] * len(expected)
    if expected:  # every other field, ``pos`` included, survives the copy
        for spec in dataclasses.fields(sample):
            if not held(getattr(sample, spec.name)):
                assert getattr(marked, spec.name) == getattr(sample, spec.name)


@pytest.mark.parametrize("sample", STATEMENT_SAMPLES, ids=lambda s: type(s).__name__)
def test_every_expression_of_a_statement_is_listed_and_mapped(sample):
    expected = below(sample)
    assert all(a is b for a, b in zip(ast.expressions(sample), expected))
    assert len(ast.expressions(sample)) == len(expected) > 0
    assert ast.map_expressions(sample, lambda e: e) is sample
    mapped = ast.map_expressions(sample, lambda e: ast.Literal(e.to_sql()))
    assert [e.value for e in below(mapped)] == [e.to_sql() for e in expected]
    assert mapped.table == sample.table
