"""Relational operators: joins, sort, limit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.operators import (
    apply_filter,
    cross_join,
    hash_join,
    limit_frame,
    prefix_columns,
    sort_frame,
)
from repro.errors import ExecutionError
from repro.planner.expressions import Frame
from repro.sql.ast import JoinKind


def _frame(**cols):
    out = {}
    for k, v in cols.items():
        if v and isinstance(v[0], str):
            arr = np.empty(len(v), dtype=object)
            arr[:] = v
            out[k] = arr
        else:
            out[k] = np.asarray(v)
    return Frame.from_columns(out)


def test_apply_filter_checks_length():
    f = _frame(a=[1, 2, 3])
    with pytest.raises(ExecutionError):
        apply_filter(f, np.array([True]))


def test_prefix_columns():
    f = prefix_columns(_frame(a=[1]), "t")
    assert list(f.columns) == ["t.a"]


def test_hash_join_inner():
    left = prefix_columns(_frame(k=[1, 2, 2, 3], v=[10, 20, 21, 30]), "l")
    right = prefix_columns(_frame(k=[2, 3, 4], w=["b", "c", "d"]), "r")
    out = hash_join(left, right, ["l.k"], ["r.k"], JoinKind.INNER)
    assert out.num_rows == 3  # k=2 matches twice, k=3 once
    assert sorted(zip(out.column("l.k"), out.column("r.w"))) == [
        (2, "b"), (2, "b"), (3, "c"),
    ]


def test_hash_join_left_outer_pads():
    left = prefix_columns(_frame(k=[1, 2], v=[10, 20]), "l")
    right = prefix_columns(_frame(k=[2], w=["b"]), "r")
    out = hash_join(left, right, ["l.k"], ["r.k"], JoinKind.LEFT_OUTER)
    assert out.num_rows == 2
    rows = dict(zip(out.column("l.k"), out.column("r.w")))
    assert rows[2] == "b" and rows[1] == ""  # string pad default


def test_hash_join_right_outer_symmetric():
    left = prefix_columns(_frame(k=[2], v=[20]), "l")
    right = prefix_columns(_frame(k=[1, 2], w=["a", "b"]), "r")
    out = hash_join(left, right, ["l.k"], ["r.k"], JoinKind.RIGHT_OUTER)
    assert out.num_rows == 2
    rows = dict(zip(out.column("r.k"), out.column("l.v")))
    assert rows[2] == 20 and rows[1] == 0  # numeric pad default


def test_join_column_collision_rejected():
    f = _frame(k=[1])
    with pytest.raises(ExecutionError, match="collision"):
        hash_join(f, f, ["k"], ["k"])


def test_cross_join_cardinality():
    left = prefix_columns(_frame(a=[1, 2]), "l")
    right = prefix_columns(_frame(b=["x", "y", "z"]), "r")
    out = cross_join(left, right)
    assert out.num_rows == 6
    assert list(out.column("l.a")) == [1, 1, 1, 2, 2, 2]
    assert list(out.column("r.b")) == ["x", "y", "z"] * 2


def test_sort_single_key_desc():
    f = _frame(a=[3, 1, 2])
    out = sort_frame(f, [(f.column("a"), False)])
    assert list(out.column("a")) == [3, 2, 1]


def test_sort_multi_key_stable():
    f = _frame(a=[1, 1, 0, 0], b=[5, 3, 9, 1])
    out = sort_frame(f, [(f.column("a"), True), (f.column("b"), False)])
    assert list(out.column("a")) == [0, 0, 1, 1]
    assert list(out.column("b")) == [9, 1, 5, 3]


def test_sort_descending_preserves_tie_order():
    f = _frame(a=[1, 1, 1], tag=["first", "second", "third"])
    out = sort_frame(f, [(f.column("a"), False)])
    assert list(out.column("tag")) == ["first", "second", "third"]


def test_limit():
    f = _frame(a=[1, 2, 3])
    assert limit_frame(f, 2).num_rows == 2
    assert limit_frame(f, None).num_rows == 3
    assert limit_frame(f, 0).num_rows == 0
    assert limit_frame(f, 10).num_rows == 3


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 5), max_size=30),
    st.lists(st.integers(0, 5), max_size=30),
)
def test_property_inner_join_matches_bruteforce(lk, rk):
    left = prefix_columns(_frame(k=lk, i=list(range(len(lk)))), "l")
    right = prefix_columns(_frame(k=rk, j=list(range(len(rk)))), "r")
    out = hash_join(left, right, ["l.k"], ["r.k"], JoinKind.INNER)
    expected = sorted(
        (i, j) for i, a in enumerate(lk) for j, b in enumerate(rk) if a == b
    )
    got = sorted(zip(out.column("l.i"), out.column("r.j")))
    assert got == expected


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=40))
def test_property_multikey_sort_matches_python(pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    f = _frame(a=a, b=b)
    out = sort_frame(f, [(f.column("a"), True), (f.column("b"), False)])
    expected = sorted(zip(a, b), key=lambda p: (p[0], -p[1]))
    assert list(zip(out.column("a"), out.column("b"))) == expected


def test_hash_join_build_side_is_always_right_input():
    # The docstring's contract: the right input is the build side no
    # matter which side is larger, and output order stays left-row-major
    # with right matches ascending.
    big_left = prefix_columns(_frame(k=[1, 2, 1, 3], i=[0, 1, 2, 3]), "l")
    small_right = prefix_columns(_frame(k=[1, 1, 2], j=[0, 1, 2]), "r")
    out = hash_join(big_left, small_right, ["l.k"], ["r.k"], JoinKind.INNER)
    assert list(zip(out.column("l.i"), out.column("r.j"))) == [
        (0, 0), (0, 1), (1, 2), (2, 0), (2, 1)
    ]
    # Swap relative sizes: same contract, order still driven by the left.
    out = hash_join(small_right, big_left, ["r.k"], ["l.k"], JoinKind.INNER)
    assert list(zip(out.column("r.j"), out.column("l.i"))) == [
        (0, 0), (0, 2), (1, 0), (1, 2), (2, 1)
    ]
