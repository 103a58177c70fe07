"""Recursive-descent SQL parser, run once per statement *shape*.

Grammar (informal)::

    statement   := select | insert | update | delete | create_table
                 | create_index | drop_table | truncate | begin | commit | rollback
    select      := SELECT select_items [FROM ident [alias] join* [WHERE expr]
                   [GROUP BY columns] [ORDER BY order_items] [LIMIT int]]
    join        := [INNER | LEFT [OUTER]] JOIN ident [alias] ON column = column
    insert      := INSERT INTO ident [(cols)] (VALUES rows | select)
    update      := UPDATE ident SET assignment (, assignment)* [WHERE expr]
    delete      := DELETE FROM ident [WHERE expr]
    expr        := or_expr with the usual precedence
                   (OR < AND < NOT < comparison/IN/BETWEEN/LIKE/IS < +- < */ < unary)

:func:`parse` is memoised per shape (:func:`repro.sql.lexer.literal_split`)
in one bounded :class:`TemplateTable`: the grammar runs when a shape is first
seen, and every later text of the shape is *bound* — its literals put into
the slots of the shape's :class:`~repro.sql.templates.StatementTemplate`,
its source positions shifted by its own literal lengths — so a diagnostic
still points into the text that was actually given.  The statement returned
carries its :attr:`~repro.sql.ast_nodes.Statement.binding`, which is how
every layer below finds what it already knows about the shape.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Sequence

from ..errors import SqlSyntaxError
from . import ast_nodes as ast
from .lexer import Token, TokenKind, literal_split, tokenize
from .templates import StatementTemplate, slot_text

_COMPARISONS = ("=", "!=", "<>", "<=", ">=", "<", ">")
_TYPE_KEYWORDS = (
    "CHAR", "VARCHAR", "INTEGER", "INT", "BIGINT",
    "FLOAT", "DOUBLE", "REAL", "TIMESTAMP",
)
_LITERALS = (TokenKind.INTEGER, TokenKind.FLOAT, TokenKind.STRING)

#: How many shapes a template table keeps (least recently used out).
TEMPLATE_CAPACITY = 512


class TemplateTable:
    """Bounded LRU of statement templates, keyed by shape.

    The one table between SQL text and everything that runs it: what used to
    be a text-keyed parse cache, the kernel cache's statement-text keys and
    the executor's per-execution compiles are all look-ups of a template
    here, then of a fact on it.  Look-ups are counted on the table (and per
    template: ``sys.templates``).
    """

    def __init__(self) -> None:
        self._templates: OrderedDict[tuple, StatementTemplate] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._templates)

    def templates(self) -> list[StatementTemplate]:
        """The templates held, least recently used first."""
        return list(self._templates.values())

    def lookup(self, sql: str) -> ast.Statement | None:
        """``sql`` bound by its shape's template, or ``None`` (counted)."""
        shape, values, lengths = literal_split(sql)
        template = self._find(shape)
        return None if template is None else template.bind_text(values, lengths)

    def parse(self, sql: str) -> ast.Statement:
        """The statement ``sql`` spells; the grammar runs once per shape."""
        shape, values, lengths = literal_split(sql)
        template = self._find(shape)
        if template is None:
            template = self._build(sql, shape, lengths)
            if template is None:
                return _Parser(tokenize(sql), sql).parse_statement()
        return template.bind_text(values, lengths)

    def prepared(
        self,
        key: Hashable,
        cells: Sequence[Any],
        build: Callable[[list[Any]], ast.Statement],
    ) -> StatementTemplate:
        """The template of the statements a program builds under ``key``
        with ``cells`` of these classes — written by ``build`` the first time
        (:meth:`StatementTemplate.prepared`), looked up and counted like a
        parsed shape's ever after; bind with ``template.bind(cells, ())``."""
        # What a text splits into starts with text, so never with ``None``.
        shape = (None, key, tuple(map(type, cells)))
        template = self._find(shape)
        if template is None:
            template = self._keep(shape, StatementTemplate.prepared(cells, build))
        return template

    def clear(self) -> None:
        self._templates.clear()
        self.hits = 0
        self.misses = 0

    def _find(self, shape: tuple) -> StatementTemplate | None:
        template = self._templates.get(shape)
        if template is None:
            self.misses += 1
            return None
        self._templates.move_to_end(shape)
        self.hits += 1
        template.hits += 1
        return template

    def _build(
        self, sql: str, shape: tuple, lengths: Sequence[int]
    ) -> StatementTemplate | None:
        """Parse ``sql`` into the template of its shape and keep it.

        The grammar runs on the tokens with every literal replaced by its
        slot; should that fail, it runs on the text as written, so that what
        is wrong with it is reported in its own words.  ``None`` when the
        shape and the token stream disagree about the literals — never for a
        text that parses, but a template is only as good as that agreement,
        so it is checked.
        """
        tokens = tokenize(sql)
        literals = [token for token in tokens if token.kind in _LITERALS]
        kinds = [token.kind.value for token in literals]
        # A literal's kind stands in the shape where its text stood.  The
        # split can only miss a literal token (one right after a dot or a
        # word character), never find one the tokenizer does not: the same
        # kinds in the same number are the same literals.
        if kinds != [part for at, part in enumerate(shape) if at % 5 > 1 and part]:
            return None
        slots = iter(range(len(literals)))
        slotted = [
            Token(token.kind, slot_text(token.kind.value, next(slots)), token.position)
            if token.kind in _LITERALS else token
            for token in tokens
        ]
        try:
            statement = _Parser(slotted, sql).parse_statement()
        except SqlSyntaxError:
            _Parser(tokens, sql).parse_statement()
            raise
        return self._keep(
            shape,
            StatementTemplate(
                "".join(part for part in shape if part is not None),
                statement, kinds, [token.position for token in literals], lengths,
            ),
        )

    def _keep(self, shape: tuple, template: StatementTemplate) -> StatementTemplate:
        self._templates[shape] = template
        while len(self._templates) > TEMPLATE_CAPACITY:
            self._templates.popitem(last=False)
        return template


#: The process-wide table :func:`parse` reads through.
TEMPLATES = TemplateTable()


def parse(sql: str) -> ast.Statement:
    """Parse a single SQL statement (optional trailing ``;``)."""
    return TEMPLATES.parse(sql)


def parse_expression(sql: str) -> ast.Expression:
    """Parse a bare expression (used by tests and view predicates)."""
    parser = _Parser(tokenize(sql), sql)
    try:
        expr = parser._expression()
    except RecursionError:
        raise parser._too_deep() from None
    parser._expect_eof()
    return expr


class _Parser:
    """The grammar, one method per rule.  It recurses once per level of
    nesting — a parenthesis goes down every precedence level — so Python's
    stack bounds how deep a text may nest: past it, the parse is refused as
    a syntax error at the token it had reached, like any other."""

    def __init__(self, tokens: list[Token], sql: str) -> None:
        self._tokens = tokens
        self._sql = sql
        self._pos = 0

    def _too_deep(self) -> SqlSyntaxError:
        token = self._peek()
        return SqlSyntaxError(
            f"expression nested too deeply at position {token.position} "
            f"in: {self._sql!r}"
        )

    # ---------------------------------------------------------------- plumbing
    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _check(self, kind: TokenKind, text: str | None = None) -> bool:
        return self._peek().matches(kind, text)

    def _accept(self, kind: TokenKind, text: str | None = None) -> Token | None:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, text: str | None = None) -> Token:
        token = self._accept(kind, text)
        if token is None:
            actual = self._peek()
            wanted = text or kind.value
            raise SqlSyntaxError(
                f"expected {wanted} but found {actual.text or 'end of input'!r} "
                f"at position {actual.position} in: {self._sql!r}"
            )
        return token

    def _expect_eof(self) -> None:
        self._accept(TokenKind.SYMBOL, ";")
        if not self._check(TokenKind.EOF):
            token = self._peek()
            raise SqlSyntaxError(
                f"unexpected trailing input {token.text!r} at position "
                f"{token.position} in: {self._sql!r}"
            )

    def _identifier(self) -> str:
        return self._expect(TokenKind.IDENT).text

    def _table_name(self) -> Token:
        """A table name: ``ident`` or a qualified ``schema.ident``.

        Qualified names (``sys.events``) are folded into a single dotted
        string — the engine resolves them as flat table names, so the
        parser never needs a notion of namespaces.  The returned token
        carries the position of the first part for diagnostics.
        """
        first = self._expect(TokenKind.IDENT)
        if self._check(TokenKind.SYMBOL, ".") and self._tokens[
            self._pos + 1
        ].kind is TokenKind.IDENT:
            self._advance()
            second = self._expect(TokenKind.IDENT)
            return Token(
                TokenKind.IDENT, f"{first.text}.{second.text}", first.position
            )
        return first

    # -------------------------------------------------------------- statements
    def parse_statement(self) -> ast.Statement:
        token = self._peek()
        if token.kind is not TokenKind.KEYWORD:
            raise SqlSyntaxError(
                f"statement must start with a keyword, found {token.text!r}"
            )
        dispatch = {
            "SELECT": self._select,
            "INSERT": self._insert,
            "UPDATE": self._update,
            "DELETE": self._delete,
            "CREATE": self._create,
            "DROP": self._drop,
            "TRUNCATE": self._truncate,
            "BEGIN": self._begin,
            "COMMIT": self._commit,
            "ROLLBACK": self._rollback,
        }
        handler = dispatch.get(token.text)
        if handler is None:
            raise SqlSyntaxError(f"unsupported statement keyword {token.text!r}")
        try:
            statement = handler()
        except RecursionError:
            raise self._too_deep() from None
        self._expect_eof()
        return statement

    def _select(self) -> ast.SelectStmt:
        self._expect(TokenKind.KEYWORD, "SELECT")
        items = self._select_items()
        table = alias = None
        joins: list[ast.Join] = []
        where = None
        group_by: list[ast.ColumnRef] = []
        order_by: list[ast.OrderItem] = []
        limit = None
        table_pos = None
        if self._accept(TokenKind.KEYWORD, "FROM"):
            table_token = self._table_name()
            table = table_token.text
            table_pos = table_token.position
            alias = self._optional_alias()
            while any(
                self._check(TokenKind.KEYWORD, word)
                for word in ("JOIN", "INNER", "LEFT")
            ):
                outer = self._accept(TokenKind.KEYWORD, "LEFT") is not None
                self._accept(TokenKind.KEYWORD, "OUTER" if outer else "INNER")
                self._expect(TokenKind.KEYWORD, "JOIN")
                join_table = self._table_name().text
                join_alias = self._optional_alias()
                self._expect(TokenKind.KEYWORD, "ON")
                left = self._column_ref()
                self._expect(TokenKind.SYMBOL, "=")
                right = self._column_ref()
                joins.append(ast.Join(join_table, join_alias, left, right, outer))
            if self._accept(TokenKind.KEYWORD, "WHERE"):
                where = self._expression()
            if self._accept(TokenKind.KEYWORD, "GROUP"):
                self._expect(TokenKind.KEYWORD, "BY")
                group_by.append(self._column_ref())
                while self._accept(TokenKind.SYMBOL, ","):
                    group_by.append(self._column_ref())
            if self._accept(TokenKind.KEYWORD, "ORDER"):
                self._expect(TokenKind.KEYWORD, "BY")
                order_by.append(self._order_item())
                while self._accept(TokenKind.SYMBOL, ","):
                    order_by.append(self._order_item())
            if self._accept(TokenKind.KEYWORD, "LIMIT"):
                limit = int(self._expect(TokenKind.INTEGER).text)
        return ast.SelectStmt(
            items=tuple(items), table=table, alias=alias, joins=tuple(joins),
            where=where, group_by=tuple(group_by), order_by=tuple(order_by),
            limit=limit, table_pos=table_pos,
        )

    def _select_items(self) -> list[ast.SelectItem]:
        items = [self._select_item()]
        while self._accept(TokenKind.SYMBOL, ","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> ast.SelectItem:
        if self._accept(TokenKind.SYMBOL, "*"):
            return ast.SelectItem(ast.Star())
        expr = self._expression()
        alias = None
        if self._accept(TokenKind.KEYWORD, "AS"):
            alias = self._identifier()
        elif self._check(TokenKind.IDENT):
            alias = self._advance().text
        return ast.SelectItem(expr, alias)

    def _order_item(self) -> ast.OrderItem:
        expr = self._expression()
        ascending = True
        if self._accept(TokenKind.KEYWORD, "DESC"):
            ascending = False
        else:
            self._accept(TokenKind.KEYWORD, "ASC")
        return ast.OrderItem(expr, ascending)

    def _optional_alias(self) -> str | None:
        if self._accept(TokenKind.KEYWORD, "AS"):
            return self._identifier()
        if self._check(TokenKind.IDENT):
            return self._advance().text
        return None

    def _insert(self) -> ast.InsertStmt:
        self._expect(TokenKind.KEYWORD, "INSERT")
        self._expect(TokenKind.KEYWORD, "INTO")
        table_token = self._table_name()
        table = table_token.text
        columns: tuple[str, ...] | None = None
        if self._accept(TokenKind.SYMBOL, "("):
            names = [self._identifier()]
            while self._accept(TokenKind.SYMBOL, ","):
                names.append(self._identifier())
            self._expect(TokenKind.SYMBOL, ")")
            columns = tuple(names)
        if self._check(TokenKind.KEYWORD, "SELECT"):
            select = self._select()
            return ast.InsertStmt(
                table, columns, select=select, table_pos=table_token.position
            )
        self._expect(TokenKind.KEYWORD, "VALUES")
        rows = [self._value_row()]
        while self._accept(TokenKind.SYMBOL, ","):
            rows.append(self._value_row())
        return ast.InsertStmt(
            table, columns, rows=tuple(rows), table_pos=table_token.position
        )

    def _value_row(self) -> tuple[ast.Expression, ...]:
        self._expect(TokenKind.SYMBOL, "(")
        exprs = [self._expression()]
        while self._accept(TokenKind.SYMBOL, ","):
            exprs.append(self._expression())
        self._expect(TokenKind.SYMBOL, ")")
        return tuple(exprs)

    def _update(self) -> ast.UpdateStmt:
        self._expect(TokenKind.KEYWORD, "UPDATE")
        table_token = self._table_name()
        self._expect(TokenKind.KEYWORD, "SET")
        assignments = [self._assignment()]
        while self._accept(TokenKind.SYMBOL, ","):
            assignments.append(self._assignment())
        where = None
        if self._accept(TokenKind.KEYWORD, "WHERE"):
            where = self._expression()
        return ast.UpdateStmt(
            table_token.text, tuple(assignments), where,
            table_pos=table_token.position,
        )

    def _assignment(self) -> ast.Assignment:
        column_token = self._expect(TokenKind.IDENT)
        self._expect(TokenKind.SYMBOL, "=")
        return ast.Assignment(
            column_token.text, self._expression(), pos=column_token.position
        )

    def _delete(self) -> ast.DeleteStmt:
        self._expect(TokenKind.KEYWORD, "DELETE")
        self._expect(TokenKind.KEYWORD, "FROM")
        table_token = self._table_name()
        where = None
        if self._accept(TokenKind.KEYWORD, "WHERE"):
            where = self._expression()
        return ast.DeleteStmt(
            table_token.text, where, table_pos=table_token.position
        )

    def _create(self) -> ast.Statement:
        self._expect(TokenKind.KEYWORD, "CREATE")
        if self._accept(TokenKind.KEYWORD, "TABLE"):
            return self._create_table_body()
        unique = bool(self._accept(TokenKind.KEYWORD, "UNIQUE"))
        self._expect(TokenKind.KEYWORD, "INDEX")
        name = self._identifier()
        self._expect(TokenKind.KEYWORD, "ON")
        table = self._table_name().text
        self._expect(TokenKind.SYMBOL, "(")
        column = self._identifier()
        self._expect(TokenKind.SYMBOL, ")")
        return ast.CreateIndexStmt(name, table, column, unique)

    def _create_table_body(self) -> ast.CreateTableStmt:
        table = self._identifier()
        self._expect(TokenKind.SYMBOL, "(")
        columns = [self._column_def()]
        while self._accept(TokenKind.SYMBOL, ","):
            columns.append(self._column_def())
        self._expect(TokenKind.SYMBOL, ")")
        return ast.CreateTableStmt(table, tuple(columns))

    def _column_def(self) -> ast.ColumnDef:
        name = self._identifier()
        type_token = self._peek()
        if type_token.kind is not TokenKind.KEYWORD or type_token.text not in _TYPE_KEYWORDS:
            raise SqlSyntaxError(f"expected a type after column {name!r}")
        self._advance()
        type_arg = None
        if self._accept(TokenKind.SYMBOL, "("):
            type_arg = int(self._expect(TokenKind.INTEGER).text)
            self._expect(TokenKind.SYMBOL, ")")
        not_null = False
        primary_key = False
        while True:
            if self._accept(TokenKind.KEYWORD, "NOT"):
                self._expect(TokenKind.KEYWORD, "NULL")
                not_null = True
            elif self._accept(TokenKind.KEYWORD, "PRIMARY"):
                self._expect(TokenKind.KEYWORD, "KEY")
                primary_key = True
            else:
                break
        return ast.ColumnDef(name, type_token.text, type_arg, not_null, primary_key)

    def _drop(self) -> ast.DropTableStmt:
        self._expect(TokenKind.KEYWORD, "DROP")
        self._expect(TokenKind.KEYWORD, "TABLE")
        return ast.DropTableStmt(self._table_name().text)

    def _truncate(self) -> ast.TruncateStmt:
        self._expect(TokenKind.KEYWORD, "TRUNCATE")
        self._accept(TokenKind.KEYWORD, "TABLE")
        return ast.TruncateStmt(self._table_name().text)

    def _begin(self) -> ast.BeginStmt:
        self._expect(TokenKind.KEYWORD, "BEGIN")
        return ast.BeginStmt()

    def _commit(self) -> ast.CommitStmt:
        self._expect(TokenKind.KEYWORD, "COMMIT")
        return ast.CommitStmt()

    def _rollback(self) -> ast.RollbackStmt:
        self._expect(TokenKind.KEYWORD, "ROLLBACK")
        return ast.RollbackStmt()

    # ------------------------------------------------------------- expressions
    def _expression(self) -> ast.Expression:
        return self._or_expr()

    def _or_expr(self) -> ast.Expression:
        left = self._and_expr()
        while self._accept(TokenKind.KEYWORD, "OR"):
            left = ast.BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> ast.Expression:
        left = self._not_expr()
        while self._accept(TokenKind.KEYWORD, "AND"):
            left = ast.BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> ast.Expression:
        if self._accept(TokenKind.KEYWORD, "NOT"):
            return ast.UnaryOp("NOT", self._not_expr())
        return self._predicate()

    def _predicate(self) -> ast.Expression:
        left = self._additive()
        token = self._peek()
        if token.kind is TokenKind.SYMBOL and token.text in _COMPARISONS:
            op = self._advance().text
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, self._additive())
        negated = False
        if self._check(TokenKind.KEYWORD, "NOT"):
            following = self._tokens[self._pos + 1]
            if following.kind is TokenKind.KEYWORD and following.text in (
                "IN", "BETWEEN", "LIKE"
            ):
                self._advance()
                negated = True
        if self._accept(TokenKind.KEYWORD, "IN"):
            self._expect(TokenKind.SYMBOL, "(")
            items = [self._expression()]
            while self._accept(TokenKind.SYMBOL, ","):
                items.append(self._expression())
            self._expect(TokenKind.SYMBOL, ")")
            return ast.InList(left, tuple(items), negated)
        if self._accept(TokenKind.KEYWORD, "BETWEEN"):
            low = self._additive()
            self._expect(TokenKind.KEYWORD, "AND")
            high = self._additive()
            return ast.Between(left, low, high, negated)
        if self._accept(TokenKind.KEYWORD, "LIKE"):
            pattern = self._expect(TokenKind.STRING).text
            return ast.Like(left, pattern, negated)
        if self._accept(TokenKind.KEYWORD, "IS"):
            is_negated = bool(self._accept(TokenKind.KEYWORD, "NOT"))
            self._expect(TokenKind.KEYWORD, "NULL")
            return ast.IsNull(left, is_negated)
        if negated:
            raise SqlSyntaxError("dangling NOT before a non-predicate")
        return left

    def _additive(self) -> ast.Expression:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.kind is TokenKind.SYMBOL and token.text in ("+", "-"):
                op = self._advance().text
                left = ast.BinaryOp(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> ast.Expression:
        left = self._unary()
        while True:
            token = self._peek()
            if token.kind is TokenKind.SYMBOL and token.text in ("*", "/"):
                op = self._advance().text
                left = ast.BinaryOp(op, left, self._unary())
            else:
                return left

    def _unary(self) -> ast.Expression:
        if self._accept(TokenKind.SYMBOL, "-"):
            return ast.UnaryOp("-", self._unary())
        if self._accept(TokenKind.SYMBOL, "+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> ast.Expression:
        token = self._peek()
        if token.kind is TokenKind.INTEGER:
            self._advance()
            return ast.Literal(int(token.text), pos=token.position)
        if token.kind is TokenKind.FLOAT:
            self._advance()
            return ast.Literal(float(token.text), pos=token.position)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.Literal(token.text, pos=token.position)
        if token.kind is TokenKind.KEYWORD and token.text == "NULL":
            self._advance()
            return ast.Literal(None, pos=token.position)
        if token.kind is TokenKind.KEYWORD and token.text in ast.AGGREGATE_FUNCTIONS:
            function = self._advance().text
            self._expect(TokenKind.SYMBOL, "(")
            if self._accept(TokenKind.SYMBOL, "*"):
                if function != "COUNT":
                    raise SqlSyntaxError(f"{function}(*) is not valid")
                argument = None
            else:
                argument = self._column_ref()
            self._expect(TokenKind.SYMBOL, ")")
            return ast.Aggregate(function, argument, pos=token.position)
        if token.kind is TokenKind.SYMBOL and token.text == "(":
            self._advance()
            expr = self._expression()
            self._expect(TokenKind.SYMBOL, ")")
            return expr
        if token.kind is TokenKind.IDENT:
            following = self._tokens[self._pos + 1]
            if following.matches(TokenKind.SYMBOL, "("):
                return self._func_call()
            return self._column_ref()
        raise SqlSyntaxError(
            f"unexpected token {token.text or 'end of input'!r} at position "
            f"{token.position} in expression"
        )

    def _func_call(self) -> ast.FuncCall:
        name_token = self._expect(TokenKind.IDENT)
        name = name_token.text.upper()
        if name not in ast.SCALAR_FUNCTIONS:
            raise SqlSyntaxError(
                f"unknown function {name!r}; supported scalar functions: "
                f"{', '.join(sorted(ast.SCALAR_FUNCTIONS))}"
            )
        self._expect(TokenKind.SYMBOL, "(")
        args: list[ast.Expression] = []
        if not self._check(TokenKind.SYMBOL, ")"):
            args.append(self._expression())
            while self._accept(TokenKind.SYMBOL, ","):
                args.append(self._expression())
        self._expect(TokenKind.SYMBOL, ")")
        return ast.FuncCall(name, tuple(args), pos=name_token.position)

    def _column_ref(self) -> ast.ColumnRef:
        first = self._expect(TokenKind.IDENT)
        if self._accept(TokenKind.SYMBOL, "."):
            second = self._expect(TokenKind.IDENT).text
            return ast.ColumnRef(second, table=first.text, pos=first.position)
        return ast.ColumnRef(first.text, pos=first.position)
