"""Aggregate states and grouped partial aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import (
    GroupedPartial,
    _group_ids,
    make_state,
    partial_aggregate,
)
from repro.errors import ExecutionError


def test_count_state():
    s = make_state("COUNT")
    s.update(np.arange(5))
    s.update_count(3)
    assert s.final() == 8


def test_sum_state_empty_is_null():
    assert make_state("SUM").final() is None


def test_sum_state_preserves_int():
    s = make_state("SUM")
    s.update(np.array([1, 2, 3], dtype=np.int64))
    assert s.final() == 6 and isinstance(s.final(), int)


def test_min_max_states():
    lo, hi = make_state("MIN"), make_state("MAX")
    for arr in (np.array([3, 1]), np.array([2])):
        lo.update(arr)
        hi.update(arr)
    assert lo.final() == 1 and hi.final() == 3


def test_min_max_strings():
    s = np.empty(2, dtype=object)
    s[:] = ["b", "a"]
    lo = make_state("MIN")
    lo.update(s)
    assert lo.final() == "a"


def test_avg_state():
    s = make_state("AVG")
    s.update(np.array([1.0, 2.0]))
    s.update(np.array([6.0]))
    assert s.final() == pytest.approx(3.0)
    assert make_state("AVG").final() is None


def test_merge_equals_single_pass():
    a, b, merged = make_state("SUM"), make_state("SUM"), make_state("SUM")
    a.update(np.array([1.5, 2.5]))
    b.update(np.array([4.0]))
    a.merge(b)
    merged.update(np.array([1.5, 2.5, 4.0]))
    assert a.final() == pytest.approx(merged.final())


def test_unknown_aggregate():
    with pytest.raises(ExecutionError):
        make_state("MEDIAN")


def test_group_ids_no_keys():
    ids, size, keys_at = _group_ids([], 4)
    assert ids.tolist() == [0, 0, 0, 0]
    assert size == 1
    assert keys_at(np.array([0])) == []


def test_group_ids_multi_key():
    k1 = np.array([1, 1, 2, 2, 1])
    k2 = np.array([0, 1, 0, 0, 0])
    ids, size, keys_at = _group_ids([k1, k2], 5)
    # groups: (1,0) -> rows 0,4 ; (1,1) -> row 1 ; (2,0) -> rows 2,3
    assert ids.min() >= 0 and ids.max() < size
    assert ids[0] == ids[4]
    assert ids[2] == ids[3]
    # ids ascend with the key tuple
    assert ids[0] < ids[1] < ids[2]
    bins = np.unique(ids)
    assert [list(t) for t in zip(*keys_at(bins))] == [[1, 0], [1, 1], [2, 0]]


def test_group_ids_single_int_key_is_its_own_id():
    keys = np.array([7, -3, 7, 0], dtype=np.int8)
    ids, size, keys_at = _group_ids([keys], 4)
    assert ids.tolist() == [10, 0, 10, 3] and size == 11
    assert keys_at(np.array([0, 3, 10])) == [[-3, 0, 7]]


def test_partial_aggregate_grouped():
    keys = [np.array(["a", "b", "a", "b"], dtype=object)]
    values = np.array([1.0, 2.0, 3.0, 4.0])
    partial = partial_aggregate(keys, ["SUM", "COUNT"], [values, None], 4)
    assert partial.groups[("a",)][0].final() == pytest.approx(4.0)
    assert partial.groups[("b",)][0].final() == pytest.approx(6.0)
    assert partial.groups[("a",)][1].final() == 2
    assert partial.rows_scanned == 4


def test_partial_aggregate_global_zero_rows_still_has_group():
    partial = partial_aggregate([], ["COUNT"], [None], 0)
    assert partial.groups[()][0].final() == 0


def test_partial_aggregate_grouped_zero_rows_empty():
    partial = partial_aggregate([np.empty(0, dtype=np.int64)], ["COUNT"], [None], 0)
    assert partial.groups == {}


def test_merge_partials():
    p1 = partial_aggregate([np.array([1, 1])], ["COUNT"], [None], 2)
    p2 = partial_aggregate([np.array([1, 2])], ["COUNT"], [None], 2)
    p1.merge(p2)
    assert p1.groups[(1,)][0].final() == 3
    assert p1.groups[(2,)][0].final() == 1
    assert p1.rows_scanned == 4


def test_merge_incompatible_rejected():
    p1 = GroupedPartial(1, ["COUNT"])
    p2 = GroupedPartial(2, ["COUNT"])
    with pytest.raises(ExecutionError):
        p1.merge(p2)


def test_estimated_bytes_grows_with_groups():
    small = partial_aggregate([np.array([1])], ["SUM"], [np.array([1.0])], 1)
    big = partial_aggregate([np.arange(100)], ["SUM"], [np.ones(100)], 100)
    assert big.estimated_bytes() > small.estimated_bytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200))
def test_property_grouped_count_matches_bincount(keys):
    arr = np.array(keys, dtype=np.int64)
    partial = partial_aggregate([arr], ["COUNT"], [None], len(arr))
    counts = np.bincount(arr)
    for value, states in partial.groups.items():
        assert states[0].final() == counts[value[0]]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.floats(-100, 100)), min_size=1, max_size=150
    )
)
def test_property_split_merge_equals_global(pairs):
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    vals = np.array([v for _, v in pairs])
    whole = partial_aggregate([keys], ["SUM", "AVG", "MIN", "MAX"], [vals] * 4, len(keys))
    half = len(pairs) // 2
    p1 = partial_aggregate([keys[:half]], ["SUM", "AVG", "MIN", "MAX"], [vals[:half]] * 4, half)
    p2 = partial_aggregate(
        [keys[half:]], ["SUM", "AVG", "MIN", "MAX"], [vals[half:]] * 4, len(pairs) - half
    )
    p1.merge(p2)
    assert set(p1.groups) == set(whole.groups)
    for key in whole.groups:
        for sa, sb in zip(p1.groups[key], whole.groups[key]):
            fa, fb = sa.final(), sb.final()
            if isinstance(fa, float):
                assert fa == pytest.approx(fb, rel=1e-9, abs=1e-9)
            else:
                assert fa == fb


# -- split-then-merge == unsplit -------------------------------------------------
#
# The stem merges each task's partial aggregate into the job's: splitting
# rows into arbitrary partitions (empty ones too) and merging their
# partials must equal aggregating them unsplit, NaN group keys included.

_FUNCS = ["COUNT", "SUM", "MIN", "MAX"]


def _partial_over(keys: np.ndarray, values: np.ndarray) -> GroupedPartial:
    arrays = [None if f == "COUNT" else values for f in _FUNCS]
    return partial_aggregate([keys], _FUNCS, arrays, len(keys))


def _assert_partials_equal(whole: GroupedPartial, merged: GroupedPartial) -> None:
    assert set(whole.groups) == set(merged.groups)
    for key, states in whole.groups.items():
        for state_a, state_b in zip(states, merged.groups[key]):
            a, b = state_a.final(), state_b.final()
            if isinstance(a, float) and isinstance(b, float):
                assert (math.isnan(a) and math.isnan(b)) or math.isclose(
                    a, b, rel_tol=1e-9, abs_tol=1e-9
                ), key
            else:
                assert a == b, key


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(
        st.sampled_from([0.0, 1.0, 2.0, float("nan")]), min_size=0, max_size=48
    ),
    cuts=st.lists(st.integers(0, 48), max_size=5),
    data=st.data(),
)
def test_split_then_merge_equals_unsplit(keys, cuts, data):
    n = len(keys)
    values = data.draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    key_arr = np.array(keys, dtype=np.float64)
    val_arr = np.array(values, dtype=np.float64)
    whole = _partial_over(key_arr, val_arr)
    # Arbitrary sub-partitions, duplicates allowed -> empty slices too.
    edges = [0] + sorted(min(c, n) for c in cuts) + [n]
    merged = GroupedPartial(num_keys=1, agg_funcs=list(_FUNCS))
    for lo, hi in zip(edges, edges[1:]):
        merged.merge(_partial_over(key_arr[lo:hi], val_arr[lo:hi]))
    _assert_partials_equal(whole, merged)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(-2, 2), min_size=1, max_size=32),
    cut=st.integers(0, 32),
)
def test_split_then_merge_integer_sums_exact(keys, cut):
    """Integer SUM/COUNT must be bit-exact under any split."""
    n = len(keys)
    key_arr = np.array(keys, dtype=np.int64)
    val_arr = np.arange(n, dtype=np.int64) * 7 - 3
    whole = partial_aggregate([key_arr], ["COUNT", "SUM"], [None, val_arr], n)
    lo = min(cut, n)
    merged = partial_aggregate([key_arr[:lo]], ["COUNT", "SUM"], [None, val_arr[:lo]], lo)
    merged.merge(
        partial_aggregate([key_arr[lo:]], ["COUNT", "SUM"], [None, val_arr[lo:]], n - lo)
    )
    assert {k: [s.final() for s in v] for k, v in whole.groups.items()} == {
        k: [s.final() for s in v] for k, v in merged.groups.items()
    }


def test_nan_group_keys_merge_across_partials():
    """Pinned regression: distinct NaN float objects from different tasks
    must land in ONE group when partials merge (``nan != nan`` would
    otherwise duplicate the group per producing task)."""
    a = _partial_over(np.array([float("nan"), 1.0]), np.array([2.0, 3.0]))
    b = _partial_over(np.array([float("nan")]), np.array([5.0]))
    a.merge(b)
    nan_keys = [k for k in a.groups if k[0] != k[0]]
    assert len(nan_keys) == 1
    count, total, lo, hi = (s.final() for s in a.groups[nan_keys[0]])
    assert count == 2
    assert total == pytest.approx(7.0)
    assert (lo, hi) == (2.0, 5.0)
