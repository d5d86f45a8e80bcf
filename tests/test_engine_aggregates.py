"""Aggregate states and grouped partial aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import (
    GroupedPartial,
    _dense_codes,
    _group_ids,
    _int_sum_cannot_wrap,
    partial_aggregate,
)
from repro.errors import ExecutionError


def _global(func, *columns):
    """One global partial per column of ``func``'s argument, merged: the
    aggregate's final value (an ``int`` column is that many COUNT(*) rows)."""
    parts = [
        partial_aggregate([], [func], [None], c)
        if isinstance(c, int)
        else partial_aggregate([], [func], [c], len(c))
        for c in columns
    ]
    return parts[0].merge(*parts[1:]).finals()[()][0]


def test_count_state():
    assert _global("COUNT", np.arange(5), 3) == 8


def test_sum_state_empty_is_null():
    assert _global("SUM", np.empty(0)) is None


def test_sum_state_preserves_int():
    value = _global("SUM", np.array([1, 2, 3], dtype=np.int64))
    assert value == 6 and isinstance(value, int)


def test_min_max_states():
    lo, hi = (_global(f, np.array([3, 1]), np.array([2])) for f in ("MIN", "MAX"))
    assert lo == 1 and hi == 3


def test_min_max_strings():
    s = np.empty(2, dtype=object)
    s[:] = ["b", "a"]
    assert _global("MIN", s) == "a"


def test_avg_state():
    assert _global("AVG", np.array([1.0, 2.0]), np.array([6.0])) == pytest.approx(3.0)
    assert _global("AVG", np.empty(0)) is None


def test_merge_equals_single_pass():
    merged = _global("SUM", np.array([1.5, 2.5]), np.array([4.0]))
    assert merged == pytest.approx(_global("SUM", np.array([1.5, 2.5, 4.0])))


def test_unknown_aggregate():
    with pytest.raises(ExecutionError):
        partial_aggregate([], ["MEDIAN"], [np.arange(3)], 3)


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
    assert [k.tolist() for k in keys_at(np.array([0, 3, 10]))] == [[-3, 0, 7]]


def test_dense_codes_of_unhashable_values_are_np_uniques():
    """Values a set cannot hold are ranked by ``np.unique``, not by hashing."""
    col = np.empty(4, dtype=object)
    for i, value in enumerate([[2], [1], [2], [0, 5]]):
        col[i] = value
    codes, cardinality = _dense_codes(col)
    assert codes.tolist() == [2, 1, 2, 0] and cardinality == 3


def test_partial_aggregate_grouped():
    keys = [np.array(["a", "b", "a", "b"], dtype=object)]
    values = np.array([1.0, 2.0, 3.0, 4.0])
    partial = partial_aggregate(keys, ["SUM", "COUNT"], [values, None], 4)
    finals = partial.finals()
    assert finals[("a",)][0] == pytest.approx(4.0)
    assert finals[("b",)][0] == pytest.approx(6.0)
    assert finals[("a",)][1] == 2
    assert partial.rows_scanned == 4


def test_partial_aggregate_global_zero_rows_still_has_group():
    partial = partial_aggregate([], ["COUNT"], [None], 0)
    assert partial.finals()[()][0] == 0


def test_partial_aggregate_grouped_zero_rows_empty():
    partial = partial_aggregate([np.empty(0, dtype=np.int64)], ["COUNT"], [None], 0)
    assert partial.finals() == {}


def test_merge_partials():
    p1 = partial_aggregate([np.array([1, 1])], ["COUNT"], [None], 2)
    p2 = partial_aggregate([np.array([1, 2])], ["COUNT"], [None], 2)
    p1 = p1.merge(p2)
    assert p1.finals()[(1,)][0] == 3
    assert p1.finals()[(2,)][0] == 1
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
    for value, finals in partial.finals().items():
        assert finals[0] == counts[value[0]]


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
    p1 = p1.merge(p2)
    assert set(p1.finals()) == set(whole.finals())
    for key in whole.finals():
        for fa, fb in zip(p1.finals()[key], whole.finals()[key]):
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
    assert set(whole.finals()) == set(merged.finals())
    for key, finals in whole.finals().items():
        for a, b in zip(finals, merged.finals()[key]):
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
        merged = merged.merge(_partial_over(key_arr[lo:hi], val_arr[lo:hi]))
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
    merged = merged.merge(
        partial_aggregate([key_arr[lo:]], ["COUNT", "SUM"], [None, val_arr[lo:]], n - lo)
    )
    assert whole.finals() == merged.finals()


def test_nan_group_keys_merge_across_partials():
    """Pinned regression: distinct NaN float objects from different tasks
    must land in ONE group when partials merge (``nan != nan`` would
    otherwise duplicate the group per producing task)."""
    a = _partial_over(np.array([float("nan"), 1.0]), np.array([2.0, 3.0]))
    b = _partial_over(np.array([float("nan")]), np.array([5.0]))
    a = a.merge(b)
    nan_keys = [k for k in a.finals() if k[0] != k[0]]
    assert len(nan_keys) == 1
    count, total, lo, hi = a.finals()[nan_keys[0]]
    assert count == 2
    assert total == pytest.approx(7.0)
    assert (lo, hi) == (2.0, 5.0)


def test_merged_integer_sum_leaving_int64_raises_sqlites_error():
    """Three rows of 2^62 in one group, one task each: the merge's exact
    sum leaves int64, and the answer is sqlite's "integer overflow", not
    an untyped ``OverflowError`` nor a wrapped number."""
    from repro import DataType, FeisuCluster, FeisuConfig, Schema

    cluster = FeisuCluster(FeisuConfig())
    cluster.load_table(
        "T",
        Schema.of(g=DataType.INT64, x=DataType.INT64),
        {
            "g": np.array([0, 0, 0, 1, 1, 1], dtype=np.int64),
            "x": np.array([2**62, 2**62, 2**62, -(2**62), 5, 7], dtype=np.int64),
        },
        block_rows=1,
    )
    with pytest.raises(ExecutionError, match="integer overflow"):
        cluster.query("SELECT g, SUM(x) FROM T GROUP BY g")
    assert cluster.query("SELECT g, SUM(x) FROM T WHERE g = 1 GROUP BY g").rows() == [
        (1, -(2**62) + 12)
    ]


@pytest.mark.parametrize("block_rows", [6, 2, 1])
@pytest.mark.parametrize(
    "sql", ["SELECT SUM(x) FROM T", "SELECT g, SUM(x) FROM T GROUP BY g"]
)
def test_leaf_integer_sum_leaving_int64_raises_sqlites_error(block_rows, sql):
    """Three rows of 2^62 in group 0, then -2^62, 5 and 7: a leaf whose
    rows can sum past int64 sums them exactly, so a job answers sqlite's
    "integer overflow" however the rows are cut into blocks, where the
    leaf's int64 scatter used to wrap to a negative total."""
    from repro import DataType, FeisuCluster, FeisuConfig, Schema

    cluster = FeisuCluster(FeisuConfig())
    cluster.load_table(
        "T",
        Schema.of(g=DataType.INT64, x=DataType.INT64),
        {
            "g": np.array([0, 0, 0, 1, 1, 1], dtype=np.int64),
            "x": np.array([2**62, 2**62, 2**62, -(2**62), 5, 7], dtype=np.int64),
        },
        block_rows=block_rows,
    )
    with pytest.raises(ExecutionError, match="integer overflow"):
        cluster.query(sql)


@pytest.mark.parametrize("keys", [[], [np.zeros(4, dtype=np.int64)]])
def test_leaf_integer_sum_near_the_bounds_is_exact(keys):
    """Rows whose magnitudes could wrap are summed exactly: the total
    fits, so it is the answer, not an error."""
    values = np.array([2**62, 2**62, -(2**62), -(2**62) + 1], dtype=np.int64)
    partial = partial_aggregate(keys, ["SUM"], [values], 4)
    assert partial.finals() == {tuple(0 for _ in keys): [1]}


def _one_row_sum(value):
    return partial_aggregate([np.zeros(1, dtype=np.int64)], ["SUM"], [np.array([value])], 1)


@pytest.mark.parametrize(
    "values, total",
    [
        ([2**62, 2**62, -(2**62), -(2**62) + 1], 1),
        ([2**63 - 1, -(2**63), 1], 0),
        ([-(2**63), 2**62, 2**62, -1], -1),
        ([-(2**62), 2**62, -(2**62), -(2**62)], -(2**63)),
        ([2**62, 2**62, 2**62, -(2**62), -(2**62), 2**62 - 1], 2**63 - 1),
    ],
)
def test_merged_integer_sum_is_exact_up_to_the_int64_bounds(values, total):
    """Running sums may leave int64 on the way; only the total may not."""
    parts = [_one_row_sum(v) for v in values]
    merged = parts[0].merge(*parts[1:])
    assert merged.finals() == {(0,): [total]}
    if total in (2**63 - 1, -(2**63)):
        with pytest.raises(ExecutionError, match="integer overflow"):
            merged.merge(_one_row_sum(1 if total > 0 else -1))


@pytest.mark.parametrize("block_rows", [6, 2, 1])
@pytest.mark.parametrize(
    "sql", ["SELECT AVG(x) FROM T", "SELECT g, AVG(x) FROM T WHERE g = 0 GROUP BY g"]
)
def test_integer_avg_past_int64_answers_and_does_not_raise(block_rows, sql):
    """An integer AVG whose sum leaves int64 answers, as sqlite's AVG does:
    only SUM takes the exact path that raises "integer overflow".  (The
    value itself is ROADMAP item 22's.)"""
    from repro import DataType, FeisuCluster, FeisuConfig, Schema

    cluster = FeisuCluster(FeisuConfig())
    cluster.load_table(
        "T",
        Schema.of(g=DataType.INT64, x=DataType.INT64),
        {
            "g": np.array([0, 0, 0, 1, 1, 1], dtype=np.int64),
            "x": np.array([2**62, 2**62, 2**62, -(2**62), 5, 7], dtype=np.int64),
        },
        block_rows=block_rows,
    )
    (row,) = cluster.query(sql).rows()
    assert isinstance(row[-1], float)


def test_a_merge_into_a_fresh_partial_counts_only_its_parts_rows():
    """The master merges every arrived partial into a fresh one, which has
    scanned no rows itself."""
    parts = [
        partial_aggregate([np.arange(n, dtype=np.int64)], ["COUNT"], [None], n) for n in (3, 4)
    ]
    merged = GroupedPartial(1, ["COUNT"]).merge(*parts)
    assert merged.rows_scanned == 7
    assert GroupedPartial(0, ["SUM"]).rows_scanned == 0


@pytest.mark.parametrize(
    "values, safe",
    [
        ([2**62 - 1, -(2**62 - 1)], True),  # 2 · (2^62 - 1) < 2^63
        ([2**61, 2**61], True),
        ([2**62, 1], False),  # 2 · 2^62 = 2^63
        ([-(2**63)], False),  # |x| = 2^63: the low side decides
        ([-(2**62) + 1, 2**62 - 1], True),
    ],
)
def test_int_sum_cannot_wrap_is_max_abs_times_rows_below_2_63(values, safe):
    """The leaf's cheap int64 scatter is taken exactly when no sum of the
    column's rows can leave int64: ``max|x| · rows < 2^63``."""
    assert _int_sum_cannot_wrap(np.array(values, dtype=np.int64)) is safe


@pytest.mark.parametrize(
    "values", [[1, 2, 3, 4], [2**62, 2**62, -(2**62), -(2**62) + 1]]
)
def test_a_global_partial_holds_one_state_row_on_either_sum_path(values):
    """Without GROUP BY a partial is one row, whether its integer SUM took
    the int64 reduction or the exact one."""
    col = np.array(values, dtype=np.int64)
    partial = partial_aggregate([], ["SUM", "MIN"], [col, col], len(values))
    assert [len(state) for state in partial.states] == [1, 1]
    assert partial.finals() == {(): [sum(values), min(values)]}
