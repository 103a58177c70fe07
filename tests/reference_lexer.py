"""The reference lexer: the char-at-a-time tokenizer ``repro.sql.lexer`` had
until the master-regex lexer replaced it, kept as the oracle the new one is
compared with (``tests/test_sql_lexer_reference.py``).

It is the deleted code verbatim, defects included: it reads ``1e`` and
``1e+`` as FLOAT tokens and ``12abc`` as ``12`` followed by ``abc``, and
takes any Unicode digit for a number.  The comparison leaves exactly those
inputs out.
"""

from __future__ import annotations

from repro.errors import SqlSyntaxError
from repro.sql.lexer import KEYWORDS, SYMBOLS, Token, TokenKind


def tokenize(sql: str) -> list[Token]:
    """Tokenize a statement; raises :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    i = 0
    length = len(sql)
    while i < length:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and sql.startswith("--", i):
            newline = sql.find("\n", i)
            i = length if newline == -1 else newline + 1
            continue
        if ch == "'":
            start = i
            i += 1
            chunks: list[str] = []
            while True:
                if i >= length:
                    raise SqlSyntaxError(f"unterminated string literal at {start}")
                if sql[i] == "'":
                    if i + 1 < length and sql[i + 1] == "'":
                        chunks.append("'")
                        i += 2
                        continue
                    i += 1
                    break
                chunks.append(sql[i])
                i += 1
            tokens.append(Token(TokenKind.STRING, "".join(chunks), start))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < length and sql[i + 1].isdigit()):
            start = i
            saw_dot = False
            saw_exp = False
            while i < length:
                c = sql[i]
                if c.isdigit():
                    i += 1
                elif c == "." and not saw_dot and not saw_exp:
                    saw_dot = True
                    i += 1
                elif c in "eE" and not saw_exp and i > start:
                    saw_exp = True
                    i += 1
                    if i < length and sql[i] in "+-":
                        i += 1
                else:
                    break
            text = sql[start:i]
            kind = TokenKind.FLOAT if (saw_dot or saw_exp) else TokenKind.INTEGER
            tokens.append(Token(kind, text, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, upper, start))
            else:
                tokens.append(Token(TokenKind.IDENT, word, start))
            continue
        for symbol in SYMBOLS:
            if sql.startswith(symbol, i):
                tokens.append(Token(TokenKind.SYMBOL, symbol, i))
                i += len(symbol)
                break
        else:
            raise SqlSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token(TokenKind.EOF, "", length))
    return tokens
