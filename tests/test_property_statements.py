"""Property test: the template route against the fresh-parse route.

The statement-level twin of ``test_property_expressions.py``.  A statement
that reaches ``parse`` when its shape is already in the template table is
*bound* — no grammar, facts read off the template — where the first statement
of a shape is parsed and has everything worked out for it.  Both routes must
be indistinguishable: for random statements (every DML kind and SELECT,
hostile literals, type errors, unknown names), a text is run once with the
table warmed by a statement of the **same shape and different literals** (the
hit route, every per-shape fact already built by the other statement) and
once with the table cleared first (the miss route) — and once more stripped of its
template altogether, so that nothing is read off a shape.  Compared: the tree and
every source position in it, ``to_sql()``, the analyzer's record (footprint
with its row range, determinism, idempotence, relevance), the checker's
diagnostics with their positions, and what executing it returns or raises and
leaves in the table.

And the premise itself: two texts with equal shape have the same token
stream but for the values of their literal tokens.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import OpDeltaAnalyzer
from repro.core.selfmaint import ViewDefinition
from repro.engine import Column, Database, TableSchema
from repro.engine.types import FLOAT, INTEGER, char
from repro.errors import ReproError
from repro.semantics import SchemaCatalog, SemanticChecker
from repro.sql import ast_nodes as ast
from repro.sql.lexer import TokenKind, literal_split, tokenize
from repro.sql.parser import TEMPLATES, parse

SCHEMA = TableSchema(
    "t",
    [
        Column("a", INTEGER, nullable=False),
        # NOT NULL: it is indexed, and the B-tree has no place for a NULL key
        # (it raises a bare TypeError — found here, not this test's subject).
        Column("b", INTEGER, nullable=False),
        Column("c", char(8)),
        Column("d", FLOAT),
    ],
    primary_key="a",
)
COLUMNS = SCHEMA.column_names
ROWS = [(i, i * 7 % 11, ("x", "yy", "it's", None)[i % 4], i / 4) for i in range(12)]
VIEWS = [
    ViewDefinition(
        name="low", base_table="t", columns=COLUMNS, predicate="b < 5",
        key_column="a", base_columns=COLUMNS,
    ),
    ViewDefinition(
        name="named", base_table="t", columns=("a", "c"), predicate=None,
        key_column="a", base_columns=COLUMNS,
    ),
]

# ------------------------------------------------------------------ statements
# A statement is drawn as a list of fragments: plain text, or a literal *kind*
# for which each of the two texts of the shape draws its own value.
INT, FLT, STR = "int", "flt", "str"

ints = st.integers(0, 40)
floats = st.floats(0, 50, allow_nan=False).map(lambda f: round(f, 3))
strs = st.sampled_from(
    ["x", "yy", "it's", "", "a--b", "% _", "12", "NULL", "long enough to overflow",
     "too long as well", "overflows c CHAR(8)"]
)


def render(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def literal(kind):
    return st.just([kind])


def text(*choices):
    return st.sampled_from(choices).map(lambda chosen: [chosen])


def seq(*parts):
    return st.tuples(*parts).map(lambda drawn: [x for part in drawn for x in part])


any_literal = st.one_of(literal(INT), literal(FLT), literal(STR), text("NULL"))
column = text("a", "b", "c", "d", "t.b", "nope")
number_column = text("a", "b", "d")
comparison = seq(
    column, text(" = ", " <> ", " < ", " >= "), st.one_of(any_literal, column)
)
condition = st.one_of(
    comparison,
    comparison,
    seq(number_column, text(" BETWEEN "), literal(INT), text(" AND "), literal(INT)),
    seq(column, text(" IN ("), literal(INT), text(", "), any_literal, text(")")),
    seq(text("c"), text(" LIKE ", " NOT LIKE "), literal(STR)),
    seq(column, text(" IS NULL", " IS NOT NULL")),
    seq(text("NOT ("), comparison, text(")")),
    seq(number_column, text(" = -"), literal(INT)),
)
where = st.one_of(
    text(""),
    seq(text(" WHERE "), condition),
    seq(text(" WHERE "), condition, text(" AND ", " OR "), condition),
)
value = st.one_of(
    any_literal,
    any_literal,
    seq(number_column, text(" + ", " * ", " / "), st.one_of(literal(INT), literal(FLT))),
    seq(text("ABS("), number_column, text(")")),
    text("NOW()", "b", "UPPER(c)"),
)
assignment = seq(text("b", "c", "d", "a", "nope"), text(" = "), value)
update = seq(
    text("UPDATE t SET "),
    st.one_of(assignment, seq(assignment, text(", "), assignment)),
    where,
)
delete = seq(text("DELETE FROM t", "DELETE FROM nowhere"), where)
row = seq(
    text("("), literal(INT), text(", "), any_literal, text(", "), any_literal,
    text(", "), st.one_of(literal(FLT), literal(INT), text("NULL")), text(")"),
)
insert = st.one_of(
    seq(text("INSERT INTO t VALUES "), row),
    seq(text("INSERT INTO t (a, b, c, d) VALUES "), row, text(", "), row),
    seq(text("INSERT INTO t (a, c) VALUES ("), literal(INT), text(", "), literal(STR),
        text(")")),
)
select = seq(
    text("SELECT "),
    text("*", "a, c", "COUNT(*), SUM(b)", "b + 1 AS n, UPPER(c)", "a, nope"),
    text(" FROM t"),
    where,
    text("", " ORDER BY a DESC", " ORDER BY a"),
    st.one_of(text(""), seq(text(" LIMIT "), literal(INT))),
)
statements = st.one_of(update, update, delete, insert, select)


@st.composite
def shape_and_two_texts(draw):
    fragments = draw(statements)
    texts = []
    for _ in range(2):
        out = []
        for fragment in fragments:
            if fragment == INT:
                out.append(render(draw(ints)))
            elif fragment == FLT:
                out.append(render(draw(floats)))
            elif fragment == STR:
                out.append(render(draw(strs)))
            else:
                out.append(fragment)
        texts.append("".join(out))
    return texts


# -------------------------------------------------------------------- outcomes
def positions(node, path="") -> list:
    """Every source position in a tree, with where it was found."""
    found = []
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if field.name in ("pos", "table_pos"):
                found.append((f"{path}.{field.name}", value))
            elif field.name != "binding":
                found.extend(positions(value, f"{path}.{field.name}"))
    elif isinstance(node, tuple):
        for index, item in enumerate(node):
            found.extend(positions(item, f"{path}[{index}]"))
    return found


class Rig:
    """One database, analyzer and checker: a route runs both texts on it."""

    def __init__(self) -> None:
        self.database = Database("twin")
        table = self.database.create_table(SCHEMA)
        table.create_index("ix_b", "b", kind="btree")
        self.session = self.database.internal_session()
        txn = self.database.begin()
        for values in ROWS:
            table.insert(txn, values)
        self.database.commit(txn)
        self.analyzer = OpDeltaAnalyzer(
            views=VIEWS, mirrored_tables={"t"}, key_columns={"t": "a"},
            table_columns={"t": COLUMNS},
        )
        self.checker = SemanticChecker(SchemaCatalog([SCHEMA]))

    def run(self, sql: str, bound: bool = True) -> dict:
        """Everything observable about one statement, errors included.

        ``bound=False`` strips the statement of its template first: every
        layer then works it out from the tree alone, as for a synthesised
        statement.
        """
        seen: dict = {}
        statement = parse(sql)
        if not bound:
            statement = dataclasses.replace(statement)
            assert statement.binding is None
        seen["tree"] = statement
        seen["positions"] = positions(statement)
        seen["sql"] = statement.to_sql()
        if ast.is_dml(statement):
            try:
                record = self.analyzer.analyze_statement(statement)
                seen["analysis"] = (
                    dataclasses.replace(record.footprint, statement=None),
                    record.footprint.row_range,
                    record.determinism,
                    record.idempotent,
                    record.relevance,
                )
            except ReproError as exc:
                seen["analysis"] = (type(exc), str(exc))
        seen["check"] = self.checker.check_statement(statement).diagnostics
        try:
            result = self.session.execute_statement(statement, sql_text=sql)
            seen["result"] = (
                result.columns, result.rows, result.rows_affected, result.plan
            )
        except ReproError as exc:
            seen["result"] = (type(exc), str(exc))
        seen["table"] = sorted(
            (values for _rid, values in self.database.table("t").scan()),
            key=repr,
        )
        return seen


@given(shape_and_two_texts())
@settings(max_examples=250, deadline=None)
def test_hit_route_equals_miss_route(texts):
    warm_up, subject = texts
    try:
        parse(subject)
    except ReproError:
        return  # nothing of this shape ever gets a template

    TEMPLATES.clear()
    hit = Rig()
    hit.run(warm_up)          # builds the template and every fact on it
    before = TEMPLATES.misses
    on_hit = hit.run(subject)
    assert TEMPLATES.misses == before, "the subject was not bound from a template"

    TEMPLATES.clear()
    miss = Rig()
    miss.run(warm_up)
    TEMPLATES.clear()         # the subject is the first of its shape again
    on_miss = miss.run(subject)

    # And with no template at all: nothing read off a shape, nothing replayed.
    plain = Rig()
    plain.run(warm_up, bound=False)
    on_plain = plain.run(subject, bound=False)

    assert on_hit == on_miss == on_plain


@given(shape_and_two_texts())
@settings(max_examples=250, deadline=None)
def test_equal_shapes_differ_in_literal_values_only(texts):
    first, second = texts
    assert literal_split(first)[0] == literal_split(second)[0]
    literal_kinds = (TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.STRING)
    for one, other in zip(tokenize(first), tokenize(second), strict=True):
        assert one.kind is other.kind
        if one.kind not in literal_kinds:
            assert one.text == other.text
