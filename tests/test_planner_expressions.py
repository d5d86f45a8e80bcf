"""Vectorized expression evaluation."""

import itertools
import sqlite3

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.planner.expressions import (
    Frame,
    evaluate,
    make_qualified_resolver,
    string_contains,
)
from repro.sql.parser import parse_expression


@pytest.fixture()
def frame():
    s = np.empty(5, dtype=object)
    s[:] = ["apple", "banana", "cherry", "apple pie", "grape"]
    return Frame.from_columns(
        {
            "a": np.array([1, 2, 3, 4, 5], dtype=np.int64),
            "b": np.array([1.0, 0.5, -2.0, 4.0, 0.0]),
            "s": s,
            "flag": np.array([True, False, True, False, True]),
        }
    )


def _eval(text, frame):
    return evaluate(parse_expression(text), frame)


def test_literal_broadcast(frame):
    assert (_eval("7", frame) == 7).all()
    assert _eval("7", frame).dtype == np.int64
    out = _eval("'x'", frame)
    assert out.dtype == object and out[0] == "x"


def test_column_lookup(frame):
    assert (_eval("a", frame) == np.arange(1, 6)).all()


def test_arithmetic(frame):
    assert (_eval("a + 1", frame) == np.arange(2, 7)).all()
    assert (_eval("a * a", frame) == np.arange(1, 6) ** 2).all()
    assert (_eval("a - 2 * a", frame) == -np.arange(1, 6)).all()
    assert _eval("a / 2", frame)[1] == pytest.approx(1.0)
    assert (_eval("a % 2", frame) == np.array([1, 0, 1, 0, 1])).all()
    assert (_eval("-a", frame) == -np.arange(1, 6)).all()


def test_comparisons(frame):
    assert (_eval("a > 3", frame) == np.array([0, 0, 0, 1, 1], bool)).all()
    assert (_eval("a <= 2", frame) == np.array([1, 1, 0, 0, 0], bool)).all()
    assert (_eval("b = 0", frame) == np.array([0, 0, 0, 0, 1], bool)).all()
    assert (_eval("a != 3", frame) == np.array([1, 1, 0, 1, 1], bool)).all()


def test_boolean_connectives(frame):
    out = _eval("a > 1 AND a < 5", frame)
    assert (out == np.array([0, 1, 1, 1, 0], bool)).all()
    out = _eval("a = 1 OR a = 5", frame)
    assert (out == np.array([1, 0, 0, 0, 1], bool)).all()
    out = _eval("NOT (a > 3)", frame)
    assert (out == np.array([1, 1, 1, 0, 0], bool)).all()


def test_and_short_circuits_on_all_false(frame):
    # right side would divide by zero rows; short-circuit avoids evaluating it
    out = _eval("a > 99 AND b / b > 0", frame)
    assert not out.any()


def test_contains(frame):
    out = _eval("s CONTAINS 'apple'", frame)
    assert (out == np.array([1, 0, 0, 1, 0], bool)).all()
    out = _eval("s CONTAINS 'an'", frame)
    assert (out == np.array([0, 1, 0, 0, 0], bool)).all()


def test_string_contains_empty_column():
    assert len(string_contains(np.empty(0, dtype=object), "x")) == 0


def test_scalar_functions(frame):
    assert (_eval("LENGTH(s)", frame) == np.array([5, 6, 6, 9, 5])).all()
    assert _eval("UPPER(s)", frame)[0] == "APPLE"
    assert _eval("LOWER(UPPER(s))", frame)[0] == "apple"
    assert (_eval("ABS(b)", frame) == np.abs(frame.column("b"))).all()


def test_missing_column_raises(frame):
    with pytest.raises(ExecutionError, match="no column"):
        _eval("zzz", frame)


def test_frame_take_and_head(frame):
    mask = np.array([1, 0, 1, 0, 1], bool)
    sub = frame.take(mask)
    assert sub.num_rows == 3
    assert list(sub.column("a")) == [1, 3, 5]
    assert frame.head(2).num_rows == 2


def test_frame_concat():
    f1 = Frame.from_columns({"x": np.array([1, 2])})
    f2 = Frame.from_columns({"x": np.array([3])})
    merged = Frame.concat([f1, f2])
    assert list(merged.column("x")) == [1, 2, 3]


def test_frame_concat_mismatch_rejected():
    f1 = Frame.from_columns({"x": np.array([1])})
    f2 = Frame.from_columns({"y": np.array([1])})
    with pytest.raises(ExecutionError):
        Frame.concat([f1, f2])


def test_frame_ragged_rejected():
    with pytest.raises(ExecutionError, match="ragged"):
        Frame.from_columns({"x": np.array([1]), "y": np.array([1, 2])})


def test_qualified_resolver():
    frame = Frame.from_columns({"t.a": np.array([1]), "b": np.array([2])})
    resolve = make_qualified_resolver(frame)
    from repro.sql.ast import Column

    assert resolve(Column("a", table="t")) == "t.a"
    assert resolve(Column("b")) == "b"
    assert resolve(Column("a")) == "t.a"  # suffix fallback
    with pytest.raises(ExecutionError):
        resolve(Column("zz"))


def test_modulo_truncates_toward_zero_as_sqlite_does():
    """``%`` keeps the dividend's sign (SQL), not the divisor's (floor
    modulo): ``-7 % 2`` is -1.  Checked against stdlib sqlite3 over
    negative and positive INT64 operands with nonzero divisors."""
    values = [-9, -7, -4, -1, 0, 1, 4, 7, 9]
    divisors = [-4, -3, -2, -1, 1, 2, 3, 5]
    pairs = list(itertools.product(values, divisors))
    x = np.array([p[0] for p in pairs], dtype=np.int64)
    y = np.array([p[1] for p in pairs], dtype=np.int64)
    got = evaluate(parse_expression("x % y"), Frame.from_columns({"x": x, "y": y}))
    con = sqlite3.connect(":memory:")
    try:
        want = [con.execute("SELECT ? % ?", p).fetchone()[0] for p in pairs]
    finally:
        con.close()
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert got[pairs.index((-7, 2))] == -1

    # A REAL operand: sqlite casts both sides to INTEGER first, and the
    # answer stays REAL (7.5 % 2 is 1.0, -7.5 % 2 is -1.0, 7 % 2.5 is 1.0).
    reals = [-9.9, -7.5, -0.5, 0.0, 2.5, 7.5, 9.9]
    real_divisors = [-4.5, -2.5, -1.0, 1.5, 2.5, 3.9]
    for xs, ys in ((reals, divisors), (values, real_divisors), (reals, real_divisors)):
        pairs = list(itertools.product(xs, ys))
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        got = evaluate(parse_expression("x % y"), Frame.from_columns({"x": x, "y": y}))
        con = sqlite3.connect(":memory:")
        try:
            want = [con.execute("SELECT ? % ?", p).fetchone()[0] for p in pairs]
        finally:
            con.close()
        assert got.dtype == np.float64
        assert got.tolist() == want
    for sql, want in (("7.5 % 2", 1.0), ("-7.5 % 2", -1.0), ("7 % 2.5", 1.0)):
        got = evaluate(parse_expression(sql), Frame.from_columns({"x": np.zeros(1)}))
        assert got.tolist() == [want], sql
