"""The reference AST traversals: the hand-written node switches that
``repro.sql.ast_nodes.children`` / ``walk`` / ``rewrite`` replaced, kept as the
oracles ``tests/test_sql_ast_traversal.py`` compares them with.

Four deleted pieces, as they stood — each spells out, per node class, what
lies below a node, which is exactly what the derived table must agree with:

* ``children`` / ``walk`` — ``sql.expressions._children`` and the walk on it;
* ``transform_expr`` — ``StatementTransformer._transform_expr``: column
  references onto the target schema.  It never had a ``FuncCall`` arm (the
  defect the one traversal removes), so it *refuses* every tree that calls a
  function; the comparison holds wherever it accepts;
* ``pin`` — the inner ``rewrite`` of ``safety.pin_time_functions``;
* ``fold`` — the traversal of ``SemanticChecker._fold``, with the fold of one
  all-literal node (``try_fold``) passed in, as the checker's own still is.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.core.transform import TableMapping
from repro.errors import OpDeltaError
from repro.sql import ast_nodes as ast


# ------------------------------------------------------------------ children
def children(node: ast.Expression) -> tuple[ast.Expression, ...]:
    """The expressions directly below ``node``."""
    if isinstance(node, (ast.ColumnRef, ast.Literal)):  # most nodes are leaves
        return ()
    if isinstance(node, ast.BinaryOp):
        return (node.left, node.right)
    if isinstance(node, ast.UnaryOp):
        return (node.operand,)
    if isinstance(node, ast.InList):
        return (node.expr, *node.items)
    if isinstance(node, ast.Between):
        return (node.expr, node.low, node.high)
    if isinstance(node, (ast.Like, ast.IsNull)):
        return (node.expr,)
    if isinstance(node, ast.FuncCall):
        return node.args
    if isinstance(node, ast.Aggregate) and node.argument is not None:
        return (node.argument,)
    return ()


def walk(expr: ast.Expression) -> list[ast.Expression]:
    """``expr`` and every expression below it."""
    found = [expr]
    for node in found:  # grows while it is walked
        found.extend(children(node))
    return found


# ----------------------------------------------------------------- transform
def transform_expr(expr: ast.Expression, mapping: TableMapping) -> ast.Expression:
    if isinstance(expr, ast.Literal):
        return expr
    if isinstance(expr, ast.ColumnRef):
        return ast.ColumnRef(mapping.require_target_column(expr.name))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op,
            transform_expr(expr.left, mapping),
            transform_expr(expr.right, mapping),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, transform_expr(expr.operand, mapping))
    if isinstance(expr, ast.InList):
        return ast.InList(
            transform_expr(expr.expr, mapping),
            tuple(transform_expr(item, mapping) for item in expr.items),
            expr.negated,
        )
    if isinstance(expr, ast.Between):
        return ast.Between(
            transform_expr(expr.expr, mapping),
            transform_expr(expr.low, mapping),
            transform_expr(expr.high, mapping),
            expr.negated,
        )
    if isinstance(expr, ast.Like):
        return ast.Like(transform_expr(expr.expr, mapping), expr.pattern, expr.negated)
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(transform_expr(expr.expr, mapping), expr.negated)
    raise OpDeltaError(f"cannot transform expression node {type(expr).__name__}")


# ----------------------------------------------------------------------- pin
def pin(expr: ast.Expression, at_ms: float) -> ast.Expression:
    if isinstance(expr, ast.FuncCall):
        if expr.function in ast.TIME_FUNCTIONS:
            return ast.Literal(at_ms)
        return dataclasses.replace(
            expr, args=tuple(pin(a, at_ms) for a in expr.args)
        )
    if isinstance(expr, ast.BinaryOp):
        return dataclasses.replace(
            expr, left=pin(expr.left, at_ms), right=pin(expr.right, at_ms)
        )
    if isinstance(expr, ast.UnaryOp):
        return dataclasses.replace(expr, operand=pin(expr.operand, at_ms))
    if isinstance(expr, ast.InList):
        return dataclasses.replace(
            expr,
            expr=pin(expr.expr, at_ms),
            items=tuple(pin(i, at_ms) for i in expr.items),
        )
    if isinstance(expr, ast.Between):
        return dataclasses.replace(
            expr,
            expr=pin(expr.expr, at_ms),
            low=pin(expr.low, at_ms),
            high=pin(expr.high, at_ms),
        )
    if isinstance(expr, (ast.Like, ast.IsNull)):
        return dataclasses.replace(expr, expr=pin(expr.expr, at_ms))
    return expr


# ---------------------------------------------------------------------- fold
TryFold = Callable[[ast.Expression], ast.Expression]


def _all_literals(exprs) -> bool:
    return all(isinstance(e, ast.Literal) for e in exprs)


def fold(expr: ast.Expression, try_fold: TryFold) -> ast.Expression:
    if isinstance(expr, ast.BinaryOp):
        left = fold(expr.left, try_fold)
        right = fold(expr.right, try_fold)
        folded = dataclasses.replace(expr, left=left, right=right)
        if expr.op in ("+", "-", "*", "/") and _all_literals((left, right)):
            return try_fold(folded)
        return folded
    if isinstance(expr, ast.UnaryOp):
        operand = fold(expr.operand, try_fold)
        folded = dataclasses.replace(expr, operand=operand)
        if expr.op == "-" and _all_literals((operand,)):
            return try_fold(folded)
        return folded
    if isinstance(expr, ast.FuncCall):
        args = tuple(fold(arg, try_fold) for arg in expr.args)
        folded = dataclasses.replace(expr, args=args)
        if expr.function in ast.DETERMINISTIC_FUNCTIONS and _all_literals(args):
            return try_fold(folded)
        return folded
    if isinstance(expr, ast.InList):
        return dataclasses.replace(
            expr,
            expr=fold(expr.expr, try_fold),
            items=tuple(fold(item, try_fold) for item in expr.items),
        )
    if isinstance(expr, ast.Between):
        return dataclasses.replace(
            expr,
            expr=fold(expr.expr, try_fold),
            low=fold(expr.low, try_fold),
            high=fold(expr.high, try_fold),
        )
    if isinstance(expr, (ast.Like, ast.IsNull)):
        return dataclasses.replace(expr, expr=fold(expr.expr, try_fold))
    return expr
