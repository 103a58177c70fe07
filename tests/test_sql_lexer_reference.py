"""The master-regex lexer against the tokenizer it replaced.

``tests/reference_lexer.py`` is the deleted char-at-a-time ``tokenize``,
verbatim.  On every statement text this repository contains or generates, and
on hypothesis text built from the awkward pieces of the grammar, the new
lexer must produce the same tokens at the same positions — and on bad input
the same ``SqlSyntaxError`` text.  The reference's own defects (a number
running into a word, an exponent without digits, a non-ASCII digit) are the
only inputs on which the two may differ, and there the new one must raise.
"""

from __future__ import annotations

import ast
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database
from repro.errors import SqlSyntaxError
from repro.sql.lexer import KEYWORDS, TokenKind, literal_split, tokenize
from repro.warehouse.olap import standard_queries
from repro.workloads import OltpWorkload

from . import reference_lexer

ROOT = Path(__file__).resolve().parent.parent
_STARTS = ("SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "TRUNCATE",
           "BEGIN", "COMMIT", "ROLLBACK")


def outcome(lexer, text):
    try:
        return lexer(text)
    except SqlSyntaxError as exc:
        return str(exc)


def fixes_a_reference_defect(error: str, text: str) -> bool:
    """The new lexer refused what the reference mis-read."""
    if error.startswith("malformed number"):
        return True
    if error.startswith("unexpected character"):
        position = int(error.rsplit(" ", 1)[1])
        return text[position].isdigit()
    return False


def assert_same(text: str) -> None:
    actual = outcome(tokenize, text)
    if isinstance(actual, str) and fixes_a_reference_defect(actual, text):
        return
    assert actual == outcome(reference_lexer.tokenize, text), text
    if not isinstance(actual, str):
        assert_split_agrees(text, actual)


def assert_split_agrees(text: str, tokens) -> None:
    """The shape reading finds the literal tokens, and no others."""
    shape, values, lengths = literal_split(text)
    literals = [
        t for t in tokens
        if t.kind in (TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.STRING)
    ]
    if [part for at, part in enumerate(shape) if at % 5 > 1 and part] != [
        t.kind.value for t in literals
    ]:
        # Only text no grammar rule accepts (``t.5``) may be read differently;
        # the template table checks the same agreement before it keeps a shape.
        assert "." in text
        return
    assert values == [
        int(t.text) if t.kind is TokenKind.INTEGER
        else float(t.text) if t.kind is TokenKind.FLOAT
        else t.text
        for t in literals
    ]
    assert len(lengths) == len(literals)


# ------------------------------------------------------------------ the corpus
def sql_strings_in(path: Path) -> list[str]:
    """String constants of a Python file that start like a statement."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.lstrip().upper().startswith(_STARTS):
                found.append(node.value)
    return found


def workload_texts() -> list[str]:
    """Every statement ``repro.workloads`` submits, as submitted."""
    texts: list[str] = []
    oltp = OltpWorkload(Database("lexer-corpus"))
    oltp.create_table()
    oltp.populate(60)
    oltp.session.capture_hooks.append(
        lambda statement, text, session: texts.append(text)
    )
    oltp.run_insert(5)
    oltp.run_update(5)
    oltp.run_delete(5)
    oltp.run_update(3, assignment="quantity = quantity + 1")
    texts.extend(
        query.sql
        for query in standard_queries(
            "parts", "quantity", "status", "status", "active",
            dimension_table="suppliers", dimension_key="supplier_id",
            fact_foreign_key="supplier_id",
        )
    )
    return texts


def host_generator_texts() -> list[str]:
    """The statements and queries of the host benchmark's four generators."""
    sys.path.insert(0, str(ROOT / "benchmarks" / "host"))
    try:
        from scenarios import SCENARIOS
    finally:
        sys.path.pop(0)
    texts = []
    for scenario in SCENARIOS.values():
        stream = scenario.generate(random.Random(7), 2)
        texts.extend(sql for window in stream.windows for txn in window for sql in txn)
        texts.extend(sql for window in stream.queries for _name, sql, _param in window)
    return texts


def test_every_statement_text_in_the_tests():
    texts = [
        text
        for path in sorted((ROOT / "tests").glob("*.py"))
        for text in sql_strings_in(path)
    ]
    assert len(texts) > 300
    for text in texts:
        assert_same(text)


def test_every_statement_the_workloads_submit():
    texts = workload_texts()
    assert len(texts) >= 8
    for text in texts:
        assert_same(text)


def test_every_statement_the_host_generators_emit():
    texts = host_generator_texts()
    assert len(texts) > 100
    for text in texts:
        assert_same(text)


# ------------------------------------------------------------------ hypothesis
def mixed_case(word: str) -> st.SearchStrategy[str]:
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda ups: "".join(c.upper() if up else c.lower() for c, up in zip(word, ups))
    )


keywords = st.sampled_from(sorted(KEYWORDS)).flatmap(mixed_case)
identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)
numbers = st.one_of(
    st.integers(0, 10**12).map(str),
    st.from_regex(r"[0-9]{1,4}\.[0-9]{0,4}", fullmatch=True),
    st.from_regex(r"\.[0-9]{1,4}", fullmatch=True),
    st.from_regex(r"[0-9]{1,3}(\.[0-9]{0,2})?[eE][+-]?[0-9]{1,2}", fullmatch=True),
)
strings = st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=12
).map(lambda body: "'" + body.replace("'", "''") + "'")
comments = st.text(
    st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
    max_size=12,
).map(lambda body: f"--{body}\n")
symbols = st.sampled_from(
    ["<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", "*", "+", "-", "/", ";"]
)
spaces = st.text(st.sampled_from(" \t\n\r"), min_size=1, max_size=3)
pieces = st.one_of(
    keywords, identifiers, numbers, numbers.map(lambda n: "-" + n), strings,
    comments, symbols, st.just("NULL"), st.just("null"),
)


@st.composite
def texts(draw) -> str:
    parts = draw(st.lists(st.tuples(pieces, spaces), max_size=12))
    return draw(st.sampled_from(["", " ", "\n"])) + "".join(
        piece + gap for piece, gap in parts
    )


@given(texts())
@settings(max_examples=300, deadline=None)
def test_same_tokens_and_positions_on_generated_text(text):
    assert_same(text)


@given(texts(), st.sampled_from(["@", "#", "'never closed", "!", "$x", "\"q\""]), texts())
@settings(max_examples=150, deadline=None)
def test_same_error_text_and_position_on_bad_input(before, bad, after):
    # (Not always an error: a quote in ``after`` may close an open string.)
    text = before + bad + " " + after
    assert outcome(tokenize, text) == outcome(reference_lexer.tokenize, text)


@pytest.mark.parametrize(
    "text",
    [
        "1.5.3", "a.5", "x -- 'q\n'y'", "'a\'\'b\'\'\'", "1.e5", "t1.c2", "-.5e-3",
        "1 .5", "", "'never closed \'\' ", "'a\'\'\'", "'a\'\'", "\'\'\'\'", "\'\'\'",
    ],
)
def test_awkward_corners(text):
    assert_same(text)
