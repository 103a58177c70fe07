"""Tests for the SQL tokenizer."""

import pytest

from repro.errors import SqlSyntaxError
from repro.sql.lexer import TokenKind, tokenize


def kinds_and_texts(sql):
    return [(t.kind, t.text) for t in tokenize(sql) if t.kind is not TokenKind.EOF]


class TestTokenize:
    def test_keywords_case_insensitive(self):
        tokens = kinds_and_texts("select From WHERE")
        assert tokens == [
            (TokenKind.KEYWORD, "SELECT"),
            (TokenKind.KEYWORD, "FROM"),
            (TokenKind.KEYWORD, "WHERE"),
        ]

    def test_identifiers_preserve_case(self):
        tokens = kinds_and_texts("MyTable my_col")
        assert tokens == [
            (TokenKind.IDENT, "MyTable"),
            (TokenKind.IDENT, "my_col"),
        ]

    def test_integer_and_float_literals(self):
        tokens = kinds_and_texts("42 3.14 .5 1e3 2.5E-2")
        assert [k for k, _t in tokens] == [
            TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.FLOAT,
            TokenKind.FLOAT, TokenKind.FLOAT,
        ]

    def test_string_literal(self):
        tokens = kinds_and_texts("'hello world'")
        assert tokens == [(TokenKind.STRING, "hello world")]

    def test_string_quote_escaping(self):
        tokens = kinds_and_texts("'it''s'")
        assert tokens == [(TokenKind.STRING, "it's")]

    def test_empty_string(self):
        assert kinds_and_texts("''") == [(TokenKind.STRING, "")]

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError, match="unterminated"):
            tokenize("'oops")

    def test_two_char_operators(self):
        tokens = kinds_and_texts("<= >= <> !=")
        assert [t for _k, t in tokens] == ["<=", ">=", "<>", "!="]

    def test_line_comments_skipped(self):
        tokens = kinds_and_texts("SELECT -- a comment\n 1")
        assert tokens == [(TokenKind.KEYWORD, "SELECT"), (TokenKind.INTEGER, "1")]

    def test_minus_not_comment(self):
        tokens = kinds_and_texts("1 - 2")
        assert [t for _k, t in tokens] == ["1", "-", "2"]

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            tokenize("SELECT @")

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind is TokenKind.EOF

    def test_positions_recorded(self):
        tokens = tokenize("SELECT a")
        assert tokens[0].position == 0
        assert tokens[1].position == 7


class TestNumbersAreAsciiAndWhole:
    """Each of these escaped as a bare ``ValueError`` from the parser, or was
    silently read as something else, when the lexer went char by char."""

    @pytest.mark.parametrize(
        ("sql", "message"),
        [
            ("SELECT 1e FROM t", "malformed number '1e' at position 7"),
            ("SELECT a FROM t WHERE b = 1e+", "malformed number '1e' at position 26"),
            ("SELECT ² FROM t", "unexpected character '²' at position 7"),
            ("SELECT a FROM t WHERE b = ٣", "unexpected character '٣' at position 26"),
            ("SELECT 12abc FROM t", "malformed number '12abc' at position 7"),
        ],
    )
    def test_raises_a_positioned_syntax_error(self, sql, message):
        from repro.sql.parser import parse

        for read in (tokenize, parse):
            with pytest.raises(SqlSyntaxError) as caught:
                read(sql)
            assert str(caught.value) == message

    def test_digits_inside_an_identifier_are_part_of_it(self):
        assert kinds_and_texts("t1 a_2b") == [
            (TokenKind.IDENT, "t1"),
            (TokenKind.IDENT, "a_2b"),
        ]

    def test_exponent_with_digits_is_a_float(self):
        assert kinds_and_texts("1e5 1.e5 1E+5 .5e-3") == [
            (TokenKind.FLOAT, "1e5"),
            (TokenKind.FLOAT, "1.e5"),
            (TokenKind.FLOAT, "1E+5"),
            (TokenKind.FLOAT, ".5e-3"),
        ]


class TestLiteralSplit:
    def test_shape_keeps_the_text_and_names_the_kinds(self):
        from repro.sql.lexer import literal_split

        shape, values, lengths = literal_split(
            "UPDATE t SET c = 'it''s' WHERE a = 17 AND d < 2.5"
        )
        assert "".join(part for part in shape if part is not None) == (
            "UPDATE t SET c = STRING WHERE a = INTEGER AND d < FLOAT"
        )
        assert values == ["it's", 17, 2.5]
        assert lengths == [7, 2, 3]

    def test_only_the_kind_of_a_literal_is_in_the_shape(self):
        from repro.sql.lexer import literal_split

        point = literal_split("DELETE FROM t WHERE a = 5")[0]
        assert point == literal_split("DELETE FROM t WHERE a = 99999")[0]
        assert point != literal_split("DELETE FROM t WHERE a = '5'")[0]
        assert point != literal_split("DELETE FROM t WHERE a = 5.0")[0]
        assert point != literal_split("DELETE FROM t WHERE a = NULL")[0]

    def test_a_comment_or_a_name_hides_what_looks_like_a_literal(self):
        from repro.sql.lexer import literal_split

        _shape, values, _lengths = literal_split(
            "SELECT t1.c2 FROM t1 -- not 'a string', not 42\n WHERE x = 'a--b'"
        )
        assert values == ["a--b"]
