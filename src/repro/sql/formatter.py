"""SQL formatting: AST → canonical query text.

The client's "query syntax checking ... guides users to write the proper
SQL-like query command" (§III-C); the formatter is the other half of
that loop — history entries, EXPLAIN output and error messages all print
queries in one canonical, re-parseable form.

Guarantee (property-tested): ``parse(format_query(parse(text)))``
produces an AST equal to ``parse(text)``.
"""

from __future__ import annotations

from typing import List

from repro.sql.ast import (
    AggregateCall,
    BinaryOp,
    BinaryOperator,
    Column,
    Expr,
    FunctionCall,
    JoinClause,
    JoinKind,
    Literal,
    Negate,
    NotOp,
    OrderItem,
    Query,
    Star,
)

#: Binding strength per operator family; higher binds tighter.
_PRECEDENCE = {
    BinaryOperator.OR: 1,
    BinaryOperator.AND: 2,
    # NOT sits at 3
    BinaryOperator.EQ: 4,
    BinaryOperator.NE: 4,
    BinaryOperator.LT: 4,
    BinaryOperator.LE: 4,
    BinaryOperator.GT: 4,
    BinaryOperator.GE: 4,
    BinaryOperator.CONTAINS: 4,
    BinaryOperator.ADD: 5,
    BinaryOperator.SUB: 5,
    BinaryOperator.MUL: 6,
    BinaryOperator.DIV: 6,
    BinaryOperator.MOD: 6,
}


def format_expression(expr: Expr, parent_precedence: int = 0) -> str:
    """Render an expression with minimal parentheses."""
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool):
            return "TRUE" if expr.value else "FALSE"
        if isinstance(expr.value, str):
            return "'" + expr.value.replace("'", "''") + "'"
        return repr(expr.value)
    if isinstance(expr, Column):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, Negate):
        inner = format_expression(expr.operand, 7)
        return f"-{inner}"
    if isinstance(expr, NotOp):
        inner = format_expression(expr.operand, 3)
        text = f"NOT {inner}"
        return f"({text})" if parent_precedence > 3 else text
    if isinstance(expr, AggregateCall):
        arg = format_expression(expr.argument)
        base = f"{expr.func}({arg})"
        if expr.within is not None:
            base = f"{base} WITHIN {format_expression(expr.within, 7)}"
        return base
    if isinstance(expr, FunctionCall):
        args = ", ".join(format_expression(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, BinaryOp):
        prec = _PRECEDENCE[expr.op]
        left = format_expression(expr.left, prec)
        # right operand of same precedence needs parens to keep the
        # parser's left-associative shape (a - (b - c) != a - b - c)
        right = format_expression(expr.right, prec + 1)
        text = f"{left} {expr.op.value} {right}"
        return f"({text})" if prec < parent_precedence else text
    raise TypeError(f"cannot format node {type(expr).__name__}")  # pragma: no cover


def format_query(query: Query, indent: bool = False) -> str:
    """Render a full query; ``indent`` puts each clause on its own line."""
    sep = "\n" if indent else " "
    parts: List[str] = [f"SELECT {_select_list(query.select_items)}"]
    tables = ", ".join(_table_text(t.name, t.alias) for t in query.tables)
    parts.append(f"FROM {tables}")
    for join in query.joins:
        parts.append(_join_text(join))
    if query.where is not None:
        parts.append(f"WHERE {format_expression(query.where)}")
    if query.group_by:
        parts.append("GROUP BY " + ", ".join(format_expression(g) for g in query.group_by))
    if query.having is not None:
        parts.append(f"HAVING {format_expression(query.having)}")
    if query.order_by:
        parts.append("ORDER BY " + ", ".join(_order_text(o) for o in query.order_by))
    if query.limit is not None:
        parts.append(f"LIMIT {query.limit}")
    return sep.join(parts)


def _select_list(items) -> str:
    rendered = []
    for item in items:
        text = format_expression(item.expr)
        if item.alias:
            text += f" AS {item.alias}"
        rendered.append(text)
    return ", ".join(rendered)


def _table_text(name: str, alias) -> str:
    return f"{name} AS {alias}" if alias else name


def _join_text(join: JoinClause) -> str:
    keyword = {
        JoinKind.INNER: "JOIN",
        JoinKind.LEFT_OUTER: "LEFT OUTER JOIN",
        JoinKind.RIGHT_OUTER: "RIGHT OUTER JOIN",
        JoinKind.CROSS: "CROSS JOIN",
    }[join.kind]
    text = f"{keyword} {_table_text(join.table.name, join.table.alias)}"
    if join.condition is not None:
        text += f" ON {format_expression(join.condition)}"
    return text


def _order_text(item: OrderItem) -> str:
    text = format_expression(item.expr)
    return text if item.ascending else f"{text} DESC"
