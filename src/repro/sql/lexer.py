"""SQL lexer: one master regex, two readings of it.

String literals use single quotes with ``''`` escaping; identifiers are
case-preserving but keywords are recognised case-insensitively; ``--``
starts a comment that runs to the end of the line.  Digits are ASCII
``[0-9]``, an exponent needs digits, and a number may not run into an
identifier (``12abc``, ``1e``): each is a :class:`SqlSyntaxError` with the
position, like every other character the lexer cannot place.

:func:`tokenize` reads a statement as the flat token stream the
recursive-descent parser consumes.  :func:`literal_split` reads the same
text as its **shape**: one C-level ``split`` on the literal alternatives of
the same regex fragments cuts the text at every INTEGER / FLOAT / STRING
literal and returns what is between them verbatim, each literal's kind, and
the literal values.  Two texts with equal shape therefore have the same
token stream up to the values of their literals — the key of the statement
template table (:mod:`repro.sql.templates`) — and, because the text
between literals is kept as written, every token of one sits where it sits
in the other, shifted only by the lengths of the literals before it.  The
kind is in the shape so that what is an error for a string (``part_id =
'5'``) stays a fact of the shape; ``NULL`` is a keyword and so in the shape
already.
"""

from __future__ import annotations

import enum
import re
from typing import Any, NamedTuple

from ..errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "INSERT", "INTO", "VALUES",
    "UPDATE", "SET", "DELETE", "CREATE", "TABLE", "INDEX", "UNIQUE", "ON",
    "PRIMARY", "KEY", "DROP", "JOIN", "INNER", "GROUP", "BY", "ORDER", "ASC",
    "DESC", "LIMIT", "AS", "IN", "BETWEEN", "LIKE", "IS", "NULL", "COUNT",
    "SUM", "AVG", "MIN", "MAX", "BEGIN", "COMMIT", "ROLLBACK", "TRUNCATE",
    "CHAR", "VARCHAR", "INTEGER", "INT", "BIGINT", "FLOAT", "DOUBLE", "REAL",
    "TIMESTAMP", "DISTINCT",
}

SYMBOLS = ("<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", "*", "+",
           "-", "/", ".", ";")


class TokenKind(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    INTEGER = "INTEGER"
    FLOAT = "FLOAT"
    STRING = "STRING"
    SYMBOL = "SYMBOL"
    EOF = "EOF"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    position: int

    def matches(self, kind: TokenKind, text: str | None = None) -> bool:
        return self.kind is kind and (text is None or self.text == text)

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.text!r})"


_COMMENT = r"--[^\n]*"
# The closing quote is one no quote follows: without that, a string the
# text never closes would be "closed" by the first half of an escaped quote.
_STRING = r"'(?:[^']|'')*'(?!')"
_FLOAT = r"(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+"
_INTEGER = r"[0-9]+"

#: Every token, tried in this order after the white space before it; what
#: ``finditer`` cannot place lands in the last group, one character at a time.
_MASTER = re.compile(
    rf"\s*(?:(?P<skip>{_COMMENT}|\Z)|(?P<STRING>{_STRING})|(?P<FLOAT>{_FLOAT})"
    rf"|(?P<INTEGER>{_INTEGER})|(?P<word>\w+)"
    rf"|(?P<SYMBOL>{'|'.join(map(re.escape, SYMBOLS))})|(?P<bad>.))",
    re.DOTALL,
)

#: The literal alternatives of :data:`_MASTER`, searched for: a comment is
#: matched first so that a quote or a digit inside it starts nothing, and a
#: number starts only where a word could not be running (``t1``, ``a.5``).
_LITERALS = re.compile(
    rf"({_COMMENT})|({_STRING})|(?<![\w.])({_FLOAT})|(?<![\w.])({_INTEGER})"
)

_WORD_RUN = re.compile(r"\w*")

#: What stands for a literal of each kind in a shape.
INTEGER, FLOAT, STRING = "INTEGER", "FLOAT", "STRING"


def tokenize(sql: str) -> list[Token]:
    """Tokenize a statement; raises :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _MASTER.finditer(sql):
        group = match.lastgroup
        if group == "skip":
            continue
        text, start = match.group(group), match.start(group)
        if group == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                raise SqlSyntaxError(
                    f"unexpected character {text[0]!r} at position {start}"
                )
            upper = text.upper()
            if upper in KEYWORDS:
                append(Token(TokenKind.KEYWORD, upper, start))
            else:
                append(Token(TokenKind.IDENT, text, start))
        elif group == "SYMBOL":
            append(Token(TokenKind.SYMBOL, text, start))
        elif group == "STRING":
            append(Token(TokenKind.STRING, text[1:-1].replace("''", "'"), start))
        elif group == "bad":
            if text == "'":
                raise SqlSyntaxError(f"unterminated string literal at {start}")
            raise SqlSyntaxError(f"unexpected character {text!r} at position {start}")
        else:
            run = _WORD_RUN.match(sql, match.end()).group()  # type: ignore[union-attr]
            if run:
                raise SqlSyntaxError(
                    f"malformed number {text + run!r} at position {start}"
                )
            append(Token(TokenKind[group], text, start))  # type: ignore[misc]
    append(Token(TokenKind.EOF, "", len(sql)))
    return tokens


def literal_split(sql: str) -> tuple[tuple[Any, ...], list[Any], list[int]]:
    """``(shape, values, lengths)`` of a statement text.

    ``shape`` is the text cut at its literals, each replaced by its kind;
    ``values`` are the literals as Python values and ``lengths`` how many
    characters each took in the text, both in the order written.
    """
    parts = _LITERALS.split(sql)
    values: list[Any] = []
    lengths: list[int] = []
    # parts: text, comment, string, float, integer, text, comment, ...
    for at in range(2, len(parts), 5):
        text = parts[at]
        if text is not None:
            values.append(text[1:-1].replace("''", "'"))
            parts[at] = STRING
        elif (text := parts[at + 1]) is not None:
            values.append(float(text))
            parts[at + 1] = FLOAT
        elif (text := parts[at + 2]) is not None:
            values.append(int(text))
            parts[at + 2] = INTEGER
        else:
            continue  # a comment: kept in the shape as written
        lengths.append(len(text))
    return tuple(parts), values, lengths
