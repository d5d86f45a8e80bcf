"""B+ tree baseline: structure and query correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index.btree import ORDER, BPlusTree
from repro.planner.cnf import AtomicPredicate
from repro.sql.ast import BinaryOperator


def test_search_exact_with_duplicates():
    values = np.array([5, 3, 5, 1, 5, 2], dtype=np.int64)
    tree = BPlusTree(values)
    assert list(tree.search(5)) == [0, 2, 4]
    assert list(tree.search(1)) == [3]
    assert list(tree.search(99)) == []


def test_range_queries():
    values = np.arange(100, dtype=np.int64)[::-1].copy()  # descending input
    tree = BPlusTree(values)
    got = sorted(tree.range(low=10, high=20))
    expected = sorted(np.flatnonzero((values >= 10) & (values <= 20)))
    assert got == expected
    assert len(tree.range(low=10, high=20, low_inclusive=False, high_inclusive=False)) == 9


def test_open_ended_ranges():
    values = np.array([4, 8, 15, 16, 23, 42], dtype=np.int64)
    tree = BPlusTree(values)
    assert sorted(tree.range(low=16)) == [3, 4, 5]
    assert sorted(tree.range(high=15)) == [0, 1, 2]
    assert sorted(tree.range()) == [0, 1, 2, 3, 4, 5]


def test_multi_level_structure():
    n = ORDER * ORDER + 10  # forces height >= 3
    values = np.random.default_rng(0).permutation(n).astype(np.int64)
    tree = BPlusTree(values)
    assert tree.height >= 3
    assert list(tree.search(0)) == [int(np.flatnonzero(values == 0)[0])]
    assert len(tree.range(low=0, high=n)) == n


def test_string_keys():
    values = np.empty(4, dtype=object)
    values[:] = ["banana", "apple", "cherry", "apple"]
    tree = BPlusTree(values)
    assert list(tree.search("apple")) == [1, 3]
    assert sorted(tree.range(low="b")) == [0, 2]


def test_supports_and_evaluate_atoms():
    values = np.array([1, 5, 5, 9], dtype=np.int64)
    tree = BPlusTree(values)
    eq = AtomicPredicate("c", BinaryOperator.EQ, 5)
    assert tree.supports(eq)
    assert list(tree.evaluate(eq)) == [False, True, True, False]
    for op, expected in [
        (BinaryOperator.GT, [False, False, False, True]),
        (BinaryOperator.GE, [False, True, True, True]),
        (BinaryOperator.LT, [True, False, False, False]),
        (BinaryOperator.LE, [True, True, True, False]),
    ]:
        atom = AtomicPredicate("c", op, 5)
        assert list(tree.evaluate(atom)) == expected


def test_contains_and_ne_unsupported():
    tree = BPlusTree(np.array([1, 2], dtype=np.int64))
    contains = AtomicPredicate("c", BinaryOperator.CONTAINS, "x")
    ne = AtomicPredicate("c", BinaryOperator.NE, 1)
    assert not tree.supports(contains)
    assert not tree.supports(ne)
    with pytest.raises(IndexError_):
        tree.evaluate(ne)


def test_empty_tree():
    tree = BPlusTree(np.array([], dtype=np.int64))
    assert list(tree.search(1)) == []
    assert list(tree.range()) == []


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=300),
    st.integers(-25, 25),
    st.integers(-25, 25),
)
def test_property_range_matches_numpy(values, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    arr = np.array(values, dtype=np.int64)
    tree = BPlusTree(arr)
    got = np.zeros(len(arr), dtype=bool)
    got[tree.range(low=lo, high=hi)] = True
    expected = (arr >= lo) & (arr <= hi)
    assert (got == expected).all()


def _array(dtype):
    def build(values):
        arr = np.empty(len(values), dtype=dtype)
        arr[:] = values
        return arr

    return build


_FLOATS = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 2.0, 2.5]),
    st.floats(width=64),
)
_TEXT = st.text(alphabet="abc", max_size=3)
#: (column values, threshold): int64, float64 with NaN, ±inf and −0.0
#: (a NaN threshold too), and strings.
_COLUMNS_AND_THRESHOLDS = st.one_of(
    st.tuples(st.lists(st.integers(-10, 10), min_size=1, max_size=200).map(_array(np.int64)),
              st.integers(-12, 12)),
    st.tuples(st.lists(_FLOATS, max_size=80).map(_array(np.float64)), _FLOATS),
    st.tuples(st.lists(_TEXT, max_size=40).map(_array(object)), _TEXT),
)


@settings(max_examples=150, deadline=None)
@given(_COLUMNS_AND_THRESHOLDS)
def test_property_atom_evaluation_matches_direct(case):
    """NaN rows fail every bound and are no key; a NaN threshold admits
    no row."""
    arr, threshold = case
    tree = BPlusTree(arr)
    assert tree.num_keys == len({v for v in arr.tolist() if v == v})
    for op in (BinaryOperator.EQ, BinaryOperator.LT, BinaryOperator.LE,
               BinaryOperator.GT, BinaryOperator.GE):
        atom = AtomicPredicate("c", op, threshold)
        assert (tree.evaluate(atom) == atom.evaluate(arr)).all(), op
