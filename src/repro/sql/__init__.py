"""SQL frontend for Feisu's star-schema dialect (§III-A)."""

from repro.sql.analyzer import AnalyzedQuery, analyze, analyze_sql
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
    SelectItem,
    Star,
    TableRef,
)
from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import parse, parse_expression
from repro.sql.statements import classify_statement

__all__ = [
    "AggregateCall",
    "AnalyzedQuery",
    "BinaryOp",
    "BinaryOperator",
    "Column",
    "Expr",
    "FunctionCall",
    "JoinClause",
    "JoinKind",
    "Literal",
    "Negate",
    "NotOp",
    "OrderItem",
    "Query",
    "SelectItem",
    "Star",
    "TableRef",
    "Token",
    "TokenType",
    "analyze",
    "analyze_sql",
    "classify_statement",
    "parse",
    "parse_expression",
    "tokenize",
]
