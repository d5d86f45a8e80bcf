"""Vectorized expression evaluation over column arrays.

A :class:`Frame` is the engine's unit of data in flight: named numpy
columns of equal length.  :func:`evaluate` computes any scalar AST
expression over a frame; aggregate calls are *not* evaluated here (the
executor replaces them with materialized result columns first).

Column resolution is pluggable because the same expression evaluates in
two contexts: on a leaf against a single table (bare column names) and
post-join against a combined frame (``binding.column`` names).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.sql.ast import (
    AggregateCall,
    BinaryOp,
    BinaryOperator,
    Column,
    Expr,
    FunctionCall,
    Literal,
    Negate,
    NotOp,
    Star,
)


@dataclass
class Frame:
    """Equal-length named columns plus the row count."""

    columns: Dict[str, np.ndarray]
    num_rows: int
    #: What a reader derived from the columns and keeps with them (the
    #: eager join's dimension key index), by the reader's key; None until
    #: the first.  Valid for as long as the frame: a frame's columns are
    #: not changed once it is built.
    derived: Optional[dict] = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_columns(cls, columns: Dict[str, np.ndarray]) -> "Frame":
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ExecutionError(f"ragged frame: lengths {sorted(lengths)}")
        return cls(columns, lengths.pop() if lengths else 0)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise ExecutionError(f"frame has no column {name!r}") from None

    def select(self, names) -> "Frame":
        return Frame({n: self.column(n) for n in names}, self.num_rows)

    def take(self, mask_or_indices: np.ndarray) -> "Frame":
        """Row subset by boolean mask or index array."""
        out = {n: v[mask_or_indices] for n, v in self.columns.items()}
        n = int(mask_or_indices.sum()) if mask_or_indices.dtype == np.bool_ else len(
            mask_or_indices
        )
        return Frame(out, n)

    def head(self, n: int) -> "Frame":
        return Frame({k: v[:n] for k, v in self.columns.items()}, min(n, self.num_rows))

    @staticmethod
    def concat(frames) -> "Frame":
        frames = [f for f in frames if f is not None]
        if not frames:
            return Frame({}, 0)
        names = list(frames[0].columns)
        for f in frames[1:]:
            if list(f.columns) != names:
                raise ExecutionError("cannot concat frames with differing columns")
        out = {
            n: np.concatenate([f.columns[n] for f in frames]) if frames else np.empty(0)
            for n in names
        }
        return Frame(out, sum(f.num_rows for f in frames))


#: Maps a Column AST node to a key in the frame's column dict.
Resolver = Callable[[Column], str]


def bare_resolver(col: Column) -> str:
    """Single-table context: drop any qualifier."""
    return col.name


def make_qualified_resolver(frame: Frame, default_binding: Optional[str] = None) -> Resolver:
    """Post-join context: try ``binding.column`` then the bare name."""

    def resolve(col: Column) -> str:
        if col.table is not None:
            qualified = f"{col.table}.{col.name}"
            if qualified in frame.columns:
                return qualified
        if col.name in frame.columns:
            return col.name
        if default_binding is not None:
            qualified = f"{default_binding}.{col.name}"
            if qualified in frame.columns:
                return qualified
        if col.table is None:
            for key in frame.columns:
                if key.endswith(f".{col.name}"):
                    return key
        raise ExecutionError(f"cannot resolve column {col} in frame")

    return resolve


def _broadcast(value, num_rows: int) -> np.ndarray:
    if isinstance(value, str):
        arr = np.empty(num_rows, dtype=object)
        arr[:] = value
        return arr
    if isinstance(value, bool):
        return np.full(num_rows, value, dtype=np.bool_)
    if isinstance(value, int):
        return np.full(num_rows, value, dtype=np.int64)
    return np.full(num_rows, float(value), dtype=np.float64)


def _map_rows(fn, dtype, *columns: np.ndarray) -> np.ndarray:
    """``fn`` over the rows of ``columns`` without a Python frame per
    row: ``map`` drives a C-level callable from C."""
    count = len(columns[0])
    if dtype is object:
        out = np.empty(count, dtype=object)
        out[:] = list(map(fn, *columns))
        return out
    return np.fromiter(map(fn, *columns), dtype=dtype, count=count)


def _floating(value) -> bool:
    """Is an operand (a column or a literal) REAL?"""
    return isinstance(value, float) or (isinstance(value, np.ndarray) and value.dtype.kind == "f")


def _contains(haystack: np.ndarray, needle: np.ndarray) -> np.ndarray:
    return _map_rows(operator.contains, np.bool_, haystack, needle)


def string_contains(column: np.ndarray, needle: str) -> np.ndarray:
    """``column CONTAINS literal`` for any string array.  Dictionary
    chunks never get here row by row: their reader answers on the
    uniques (:class:`~repro.columnar.encoding.ChunkReader`)."""
    return _map_rows(operator.contains, np.bool_, column, repeat(needle))


def evaluate(expr: Expr, frame: Frame, resolve: Resolver = bare_resolver) -> np.ndarray:
    """Evaluate ``expr`` to a column of ``frame.num_rows`` values."""
    if isinstance(expr, Literal):
        return _broadcast(expr.value, frame.num_rows)
    if isinstance(expr, Column):
        return frame.column(resolve(expr))
    if isinstance(expr, Star):
        raise ExecutionError("'*' cannot be evaluated as a scalar expression")
    if isinstance(expr, AggregateCall):
        raise ExecutionError(
            f"aggregate {expr} reached the scalar evaluator; executor bug"
        )
    if isinstance(expr, Negate):
        return -evaluate(expr.operand, frame, resolve)
    if isinstance(expr, NotOp):
        return ~evaluate(expr.operand, frame, resolve).astype(np.bool_)
    if isinstance(expr, FunctionCall):
        return _evaluate_function(expr, frame, resolve)
    if isinstance(expr, BinaryOp):
        return _evaluate_binary(expr, frame, resolve)
    raise ExecutionError(f"unsupported expression node {type(expr).__name__}")


def _evaluate_function(expr: FunctionCall, frame: Frame, resolve: Resolver) -> np.ndarray:
    args = [evaluate(a, frame, resolve) for a in expr.args]
    if expr.name == "LENGTH":
        return _map_rows(len, np.int64, args[0])
    if expr.name == "LOWER":
        return _map_rows(str.lower, object, args[0])
    if expr.name == "UPPER":
        return _map_rows(str.upper, object, args[0])
    if expr.name == "ABS":
        return np.abs(args[0])
    raise ExecutionError(f"unknown function {expr.name!r}")


def _evaluate_binary(expr: BinaryOp, frame: Frame, resolve: Resolver) -> np.ndarray:
    op = expr.op
    if op is BinaryOperator.AND:
        left = evaluate(expr.left, frame, resolve).astype(np.bool_)
        if not left.any():
            return left  # short-circuit: right side can't change anything
        return left & evaluate(expr.right, frame, resolve).astype(np.bool_)
    if op is BinaryOperator.OR:
        left = evaluate(expr.left, frame, resolve).astype(np.bool_)
        if left.all():
            return left
        return left | evaluate(expr.right, frame, resolve).astype(np.bool_)

    if op is BinaryOperator.CONTAINS:
        left = evaluate(expr.left, frame, resolve)
        if isinstance(expr.right, Literal) and isinstance(expr.right.value, str):
            return string_contains(left, expr.right.value)
        return _contains(left, evaluate(expr.right, frame, resolve))
    # A literal operand stays a Python scalar, which numpy compares with
    # the column exactly, an int past int64 included; of two literals one
    # is still broadcast, so the answer is a column.
    if isinstance(expr.right, Literal):
        left, right = evaluate(expr.left, frame, resolve), expr.right.value
    elif isinstance(expr.left, Literal):
        left, right = expr.left.value, evaluate(expr.right, frame, resolve)
    else:
        left, right = evaluate(expr.left, frame, resolve), evaluate(expr.right, frame, resolve)
    if op is BinaryOperator.EQ:
        return left == right
    if op is BinaryOperator.NE:
        return left != right
    if op is BinaryOperator.LT:
        return left < right
    if op is BinaryOperator.LE:
        return left <= right
    if op is BinaryOperator.GT:
        return left > right
    if op is BinaryOperator.GE:
        return left >= right
    if op is BinaryOperator.ADD:
        return left + right
    if op is BinaryOperator.SUB:
        return left - right
    if op is BinaryOperator.MUL:
        return left * right
    if op is BinaryOperator.DIV:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.true_divide(left, right)
    if op is BinaryOperator.MOD:
        with np.errstate(divide="ignore", invalid="ignore"):
            # SQL's remainder truncates toward zero (-7 % 2 is -1), as
            # ``fmod`` does; ``np.mod`` is floor modulo (-7 % 2 is 1).
            # A REAL operand is cast to an integer first (7.5 % 2 is 1.0).
            if _floating(left) or _floating(right):
                left, right = np.trunc(left), np.trunc(right)
            return np.fmod(left, right)
    raise ExecutionError(f"unsupported operator {op}")
