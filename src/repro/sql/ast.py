"""Abstract syntax tree for Feisu's SQL dialect.

The grammar is the star-schema query language of §III-A::

    SELECT expr1 [[AS] alias1] [...]
           [aggr_func(expr3) WITHIN expr4]
    FROM table1 [, table2, ...]
         [[INNER|[RIGHT|LEFT] OUTER|CROSS] JOIN table3 [[AS] alias3]
          ON join_cond [AND join_cond ...]]
    [WHERE cond] [GROUP BY ...] [HAVING cond]
    [ORDER BY field [DESC|ASC] ...] [LIMIT n];

plus the ``CONTAINS`` comparison the evaluation workload uses (§VI-B).
Nodes are immutable dataclasses; the analyzer decorates them externally
rather than mutating them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple, Union


class BinaryOperator(enum.Enum):
    """Binary operators, grouped by family."""

    # comparisons
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    CONTAINS = "CONTAINS"
    # boolean connectives
    AND = "AND"
    OR = "OR"
    # arithmetic
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"

    @property
    def is_comparison(self) -> bool:
        return self in (
            BinaryOperator.EQ,
            BinaryOperator.NE,
            BinaryOperator.LT,
            BinaryOperator.LE,
            BinaryOperator.GT,
            BinaryOperator.GE,
            BinaryOperator.CONTAINS,
        )

    @property
    def is_boolean(self) -> bool:
        return self in (BinaryOperator.AND, BinaryOperator.OR)

#: Comparison flip table: ``a OP b``  ==  ``b FLIPPED[OP] a``.
FLIPPED = {
    BinaryOperator.LT: BinaryOperator.GT,
    BinaryOperator.LE: BinaryOperator.GE,
    BinaryOperator.GT: BinaryOperator.LT,
    BinaryOperator.GE: BinaryOperator.LE,
    BinaryOperator.EQ: BinaryOperator.EQ,
    BinaryOperator.NE: BinaryOperator.NE,
}

#: Negation table: NOT (a OP b)  ==  a NEGATED[OP] b.
NEGATED = {
    BinaryOperator.EQ: BinaryOperator.NE,
    BinaryOperator.NE: BinaryOperator.EQ,
    BinaryOperator.LT: BinaryOperator.GE,
    BinaryOperator.LE: BinaryOperator.GT,
    BinaryOperator.GT: BinaryOperator.LE,
    BinaryOperator.GE: BinaryOperator.LT,
}


class Expr:
    """Base class for expression nodes."""

    def children(self) -> Tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class Literal(Expr):
    value: Union[int, float, str, bool]

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


@dataclass(frozen=True)
class Column(Expr):
    name: str
    table: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expr):
    """``*`` — only valid directly under COUNT() or as the lone select item."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    op: BinaryOperator
    left: Expr
    right: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class NotOp(Expr):
    operand: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class Negate(Expr):
    """Arithmetic unary minus."""

    operand: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"(-{self.operand})"


#: Aggregate function names the engine implements.
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass(frozen=True)
class AggregateCall(Expr):
    """``aggr_func(expr) [WITHIN expr]``.

    ``WITHIN`` (borrowed from Dremel's dialect, which Feisu's grammar
    echoes) scopes the aggregate to partitions of the given expression;
    the analyzer folds the WITHIN expression into the grouping keys.
    """

    func: str
    argument: Expr  # Star() for COUNT(*)
    within: Optional[Expr] = None

    def children(self) -> Tuple[Expr, ...]:
        kids: Tuple[Expr, ...] = (self.argument,)
        if self.within is not None:
            kids += (self.within,)
        return kids

    def __str__(self) -> str:
        base = f"{self.func}({self.argument})"
        return f"{base} WITHIN {self.within}" if self.within is not None else base


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Scalar functions (LENGTH, LOWER, UPPER, ABS)."""

    name: str
    args: Tuple[Expr, ...]

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


class JoinKind(enum.Enum):
    INNER = "INNER"
    LEFT_OUTER = "LEFT OUTER"
    RIGHT_OUTER = "RIGHT OUTER"
    CROSS = "CROSS"


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name expressions refer to this table by."""
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    kind: JoinKind
    table: TableRef
    condition: Optional[Expr]  # None only for CROSS


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass(frozen=True)
class Query:
    """One parsed SELECT statement."""

    select_items: Tuple[SelectItem, ...]
    tables: Tuple[TableRef, ...]
    joins: Tuple[JoinClause, ...] = ()
    where: Optional[Expr] = None
    group_by: Tuple[Expr, ...] = ()
    having: Optional[Expr] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None


def literal_value(expr: Expr):
    """The value of a literal or of a negated numeric literal, else None."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Negate) and isinstance(expr.operand, Literal):
        value = expr.operand.value
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return -value
    return None


def walk(expr: Expr):
    """Yield ``expr`` and all descendants, pre-order."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def contains_aggregate(expr: Expr) -> bool:
    return any(isinstance(e, AggregateCall) for e in walk(expr))


def map_columns(expr: Expr, fn) -> Expr:
    """Rebuild an expression tree with ``fn`` applied to every Column."""
    if isinstance(expr, Column):
        return fn(expr)
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, map_columns(expr.left, fn), map_columns(expr.right, fn))
    if isinstance(expr, NotOp):
        return NotOp(map_columns(expr.operand, fn))
    if isinstance(expr, Negate):
        return Negate(map_columns(expr.operand, fn))
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(map_columns(a, fn) for a in expr.args))
    if isinstance(expr, AggregateCall):
        within = map_columns(expr.within, fn) if expr.within is not None else None
        return AggregateCall(expr.func, map_columns(expr.argument, fn), within)
    return expr
