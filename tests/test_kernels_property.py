"""Property tests: vectorized kernels vs. the scalar loops they replaced.

The references below are faithful copies of the seed's row-at-a-time
implementations (dict-table hash join, per-group ``state.update`` loop,
per-key argsort/reverse/tie-fix sort, byte-loop RLE codec).  Hypothesis
drives both sides with int64 / float64 / object-string columns, empty
frames, all-equal keys and outer-join padding; results must match
bit-for-bit (float sums use exactly-representable values — sixteenths —
so summation order cannot shift the result).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.aggregates import _group_ids, make_state, partial_aggregate
from repro.engine.operators import hash_join, sort_frame
from repro.index.bitmap import BitVector, rle_compress, rle_decompress
from repro.planner.expressions import Frame
from repro.sql.ast import JoinKind

settings.register_profile("kernels", deadline=None, max_examples=60)
settings.load_profile("kernels")


def _to_python(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


# -- scalar references (copied from the seed) ------------------------------


def _default_pad(col, n):
    if col.dtype == object:
        pad = np.empty(n, dtype=object)
        pad[:] = ""
        return pad
    return np.zeros(n, dtype=col.dtype)


def _reference_hash_join(left, right, left_keys, right_keys, kind):
    if kind is JoinKind.RIGHT_OUTER:
        return _reference_hash_join(right, left, right_keys, left_keys,
                                    JoinKind.LEFT_OUTER)
    left_arrays = [left.column(k) for k in left_keys]
    right_arrays = [right.column(k) for k in right_keys]
    table = {}
    for i in range(right.num_rows):
        key = tuple(arr[i] for arr in right_arrays)
        table.setdefault(key, []).append(i)
    left_idx, right_idx, unmatched = [], [], []
    for i in range(left.num_rows):
        key = tuple(arr[i] for arr in left_arrays)
        matches = table.get(key)
        if matches:
            left_idx.extend([i] * len(matches))
            right_idx.extend(matches)
        elif kind is JoinKind.LEFT_OUTER:
            unmatched.append(i)
    li = np.asarray(left_idx, dtype=np.int64)
    ri = np.asarray(right_idx, dtype=np.int64)
    out = {}
    for name, col in left.columns.items():
        matched_part = col[li]
        if unmatched:
            matched_part = np.concatenate((matched_part, col[np.asarray(unmatched)]))
        out[name] = matched_part
    pad = len(unmatched)
    for name, col in right.columns.items():
        matched_part = col[ri]
        if pad:
            matched_part = np.concatenate((matched_part, _default_pad(col, pad)))
        out[name] = matched_part
    return Frame(out, len(li) + pad)


def _reference_group_rows(key_columns, num_rows):
    if not key_columns:
        ids = np.zeros(num_rows, dtype=np.int64)
        if num_rows == 0:
            return ids, np.zeros(0, dtype=np.int64)
        return ids, np.array([0], dtype=np.int64)
    combined = None
    for col in key_columns:
        uniques, codes = np.unique(col, return_inverse=True)
        codes = codes.astype(np.int64)
        combined = codes if combined is None else combined * np.int64(len(uniques)) + codes
    _, reps, ids = np.unique(combined, return_index=True, return_inverse=True)
    return ids.astype(np.int64), reps.astype(np.int64)


def _reference_partial_aggregate(key_arrays, agg_funcs, agg_arrays, num_rows):
    """Seed group loop; returns {key_tuple: [state, ...]}."""
    groups = {}
    if num_rows == 0:
        if not key_arrays:
            groups[()] = [make_state(f) for f in agg_funcs]
        return groups
    ids, _reps = _reference_group_rows(key_arrays, num_rows)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )
    slices = np.append(boundaries, len(sorted_ids))
    for gi in range(len(boundaries)):
        rows = order[slices[gi] : slices[gi + 1]]
        rep = rows[0]
        key = tuple(_to_python(col[rep]) for col in key_arrays)
        states = groups.get(key)
        if states is None:
            states = [make_state(f) for f in agg_funcs]
            groups[key] = states
        for state, arr in zip(states, agg_arrays):
            if arr is None:
                state.update_count(len(rows))
            else:
                state.update(arr[rows])
    return groups


def _reference_sort_frame(frame, keys):
    order = np.arange(frame.num_rows)
    for values, ascending in reversed(list(keys)):
        take = values[order]
        idx = np.argsort(take, kind="stable")
        if not ascending:
            idx = idx[::-1]
            idx = _reference_stable_descending(take, idx)
        order = order[idx]
    return frame.take(order)


def _reference_stable_descending(values, reversed_idx):
    sorted_vals = values[reversed_idx]
    out = reversed_idx.copy()
    start = 0
    n = len(sorted_vals)
    for i in range(1, n + 1):
        if i == n or sorted_vals[i] != sorted_vals[start]:
            out[start:i] = out[start:i][::-1]
            start = i
    return out


def _reference_rle_compress(bv):
    raw = bv._bits  # noqa: SLF001
    if len(raw) == 0:
        return b"", bv.length
    change = np.concatenate(([True], raw[1:] != raw[:-1]))
    starts = np.flatnonzero(change)
    lengths = np.diff(np.concatenate((starts, [len(raw)])))
    out = bytearray()
    for start, run in zip(starts, lengths):
        run = int(run)
        while run > 0:
            chunk = min(run, 0xFFFF)
            out += chunk.to_bytes(2, "little")
            out.append(int(raw[start]))
            run -= chunk
    return bytes(out), bv.length


# -- strategies ------------------------------------------------------------

# Exactly-representable floats (sixteenths): every partial sum is exact,
# so SUM/AVG are identical regardless of summation order or tree shape.
exact_floats = st.integers(-4096, 4096).map(lambda v: v / 16.0)
small_ints = st.integers(-5, 5)
wide_ints = st.integers(-(10**9), 10**9)
words = st.sampled_from(["", "a", "b", "ab", "zz", "site3"])

key_families = st.sampled_from(["int", "float", "str"])


def _column(family, values):
    if family == "int":
        return np.asarray(values, dtype=np.int64)
    if family == "float":
        return np.asarray(values, dtype=np.float64)
    arr = np.empty(len(values), dtype=object)
    arr[:] = [str(v) for v in values]
    return arr


def _family_strategy(family):
    if family == "int":
        return st.one_of(small_ints, wide_ints)
    if family == "float":
        return exact_floats
    return words


def _assert_frames_equal(a, b):
    assert a.num_rows == b.num_rows
    assert list(a.columns) == list(b.columns)
    for name in a.columns:
        ca, cb = a.columns[name], b.columns[name]
        assert ca.dtype == cb.dtype
        assert ca.tolist() == cb.tolist(), name


# -- hash join -------------------------------------------------------------


@given(
    data=st.data(),
    family=key_families,
    kind=st.sampled_from([JoinKind.INNER, JoinKind.LEFT_OUTER, JoinKind.RIGHT_OUTER]),
)
def test_hash_join_matches_scalar_reference(data, family, kind):
    elems = _family_strategy(family)
    lk = data.draw(st.lists(elems, min_size=0, max_size=30))
    rk = data.draw(st.lists(elems, min_size=0, max_size=30))
    left = Frame(
        {"l.k": _column(family, lk),
         "l.v": np.arange(len(lk), dtype=np.int64)},
        len(lk),
    )
    right = Frame(
        {"r.k": _column(family, rk),
         "r.w": np.arange(len(rk), dtype=np.float64)},
        len(rk),
    )
    got = hash_join(left, right, ["l.k"], ["r.k"], kind)
    want = _reference_hash_join(left, right, ["l.k"], ["r.k"], kind)
    _assert_frames_equal(got, want)


@given(data=st.data(), kind=st.sampled_from([JoinKind.INNER, JoinKind.LEFT_OUTER]))
def test_hash_join_multi_key_matches_scalar_reference(data, kind):
    n_left = data.draw(st.integers(0, 25))
    n_right = data.draw(st.integers(0, 25))
    lk1 = data.draw(st.lists(small_ints, min_size=n_left, max_size=n_left))
    lk2 = data.draw(st.lists(words, min_size=n_left, max_size=n_left))
    rk1 = data.draw(st.lists(small_ints, min_size=n_right, max_size=n_right))
    rk2 = data.draw(st.lists(words, min_size=n_right, max_size=n_right))
    left = Frame(
        {"l.a": _column("int", lk1), "l.b": _column("str", lk2)}, n_left
    )
    right = Frame(
        {"r.a": _column("int", rk1), "r.b": _column("str", rk2)}, n_right
    )
    got = hash_join(left, right, ["l.a", "l.b"], ["r.a", "r.b"], kind)
    want = _reference_hash_join(left, right, ["l.a", "l.b"], ["r.a", "r.b"], kind)
    _assert_frames_equal(got, want)


def test_hash_join_all_equal_keys_is_cross_product():
    left = Frame({"l.k": np.full(7, 3, dtype=np.int64)}, 7)
    right = Frame({"r.k": np.full(5, 3, dtype=np.int64)}, 5)
    got = hash_join(left, right, ["l.k"], ["r.k"], JoinKind.INNER)
    want = _reference_hash_join(left, right, ["l.k"], ["r.k"], JoinKind.INNER)
    assert got.num_rows == 35
    _assert_frames_equal(got, want)


# -- grouped aggregation ---------------------------------------------------


@given(data=st.data(), family=key_families, use_count_star=st.booleans())
def test_partial_aggregate_matches_scalar_reference(data, family, use_count_star):
    n = data.draw(st.integers(0, 40))
    keys = _column(
        family, data.draw(st.lists(_family_strategy(family), min_size=n, max_size=n))
    )
    values = np.asarray(
        data.draw(st.lists(exact_floats, min_size=n, max_size=n)), dtype=np.float64
    )
    ints = np.asarray(
        data.draw(st.lists(small_ints, min_size=n, max_size=n)), dtype=np.int64
    )
    funcs = ["COUNT", "SUM", "MIN", "MAX", "AVG", "SUM"]
    arrays = [None if use_count_star else values, values, values, values, values, ints]
    got = partial_aggregate([keys], funcs, arrays, n)
    want = _reference_partial_aggregate([keys], funcs, arrays, n)
    assert set(got.groups) == set(want.keys())
    for key, states in got.groups.items():
        finals = [s.final() for s in states]
        ref_finals = [s.final() for s in want[key]]
        assert finals == ref_finals, key


@given(data=st.data())
def test_partial_aggregate_multi_key_matches_scalar_reference(data):
    n = data.draw(st.integers(0, 40))
    k1 = _column("int", data.draw(st.lists(small_ints, min_size=n, max_size=n)))
    k2 = _column("str", data.draw(st.lists(words, min_size=n, max_size=n)))
    values = np.asarray(
        data.draw(st.lists(exact_floats, min_size=n, max_size=n)), dtype=np.float64
    )
    funcs = ["COUNT", "SUM", "MIN", "MAX", "AVG"]
    arrays = [values] * 5
    got = partial_aggregate([k1, k2], funcs, arrays, n)
    want = _reference_partial_aggregate([k1, k2], funcs, arrays, n)
    assert set(got.groups) == set(want.keys())
    for key, states in got.groups.items():
        assert [s.final() for s in states] == [s.final() for s in want[key]], key


@given(data=st.data())
def test_partial_aggregate_no_keys_matches_scalar_reference(data):
    n = data.draw(st.integers(0, 40))
    values = np.asarray(
        data.draw(st.lists(exact_floats, min_size=n, max_size=n)), dtype=np.float64
    )
    funcs = ["COUNT", "SUM", "AVG"]
    arrays = [None, values, values]
    got = partial_aggregate([], funcs, arrays, n)
    want = _reference_partial_aggregate([], funcs, arrays, n)
    assert set(got.groups) == set(want.keys())
    for key, states in got.groups.items():
        assert [s.final() for s in states] == [s.final() for s in want[key]]


def test_partial_aggregate_object_keys_that_are_not_all_strings():
    # The hashed ranking is for ``str`` only; anything else keeps np.unique.
    keys = np.array([3, 1, 3, 2], dtype=object)
    got = partial_aggregate([keys], ["COUNT"], [None], 4)
    assert [(k, s[0].final()) for k, s in got.groups.items()] == [((1,), 1), ((2,), 1), ((3,), 2)]


def test_partial_aggregate_nan_keys_share_one_group():
    # NaN != NaN must not split NaN rows into per-row groups: the scalar
    # path's np.unique factorize collapsed all NaNs into one group.
    import math

    keys = np.array([np.nan, 1.0, np.nan], dtype=np.float64)
    values = np.array([2.0, 5.0, 3.0], dtype=np.float64)
    got = partial_aggregate([keys], ["COUNT", "SUM"], [None, values], 3)
    want = _reference_partial_aggregate([keys], ["COUNT", "SUM"], [None, values], 3)

    def by_label(groups):
        out = {}
        for (k,), states in groups.items():
            label = "nan" if isinstance(k, float) and math.isnan(k) else k
            assert label not in out  # one group per distinct key, NaN included
            out[label] = [s.final() for s in states]
        return out

    assert by_label(got.groups) == by_label(want) == {"nan": [2, 5.0], 1.0: [1, 5.0]}


def test_partial_aggregate_avg_int64_exact_beyond_double_precision():
    # The scalar AvgState summed exactly in int64 and converted once;
    # element-wise float conversion would collapse these to AVG == 0.0.
    values = np.array([2**60 + 1, 2**60 + 3, -(2**60), -(2**60)], dtype=np.int64)
    keys = np.zeros(4, dtype=np.int64)
    got = partial_aggregate([keys], ["AVG"], [values], 4)
    want = _reference_partial_aggregate([keys], ["AVG"], [values], 4)
    assert [s.final() for s in got.groups[(0,)]] == [1.0]
    assert [s.final() for s in want[(0,)]] == [1.0]


@given(data=st.data())
def test_partial_aggregate_general_floats_within_tolerance(data):
    # Arbitrary doubles: summation order may differ, so SUM/AVG get a
    # relative tolerance; COUNT/MIN/MAX stay exact.
    n = data.draw(st.integers(1, 40))
    keys = _column("int", data.draw(st.lists(small_ints, min_size=n, max_size=n)))
    values = np.asarray(
        data.draw(
            st.lists(
                st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.float64,
    )
    funcs = ["COUNT", "SUM", "MIN", "MAX", "AVG"]
    got = partial_aggregate([keys], funcs, [values] * 5, n)
    want = _reference_partial_aggregate([keys], funcs, [values] * 5, n)
    assert set(got.groups) == set(want.keys())
    # Reordering error for a float sum is bounded by n * eps * sum(|x|),
    # which dwarfs rel * |sum| when large terms cancel to a small total.
    slack = n * np.finfo(np.float64).eps * float(np.sum(np.abs(values)))
    for key, states in got.groups.items():
        g = [s.final() for s in states]
        w = [s.final() for s in want[key]]
        assert g[0] == w[0] and g[2] == w[2] and g[3] == w[3]
        assert g[1] == pytest.approx(w[1], rel=1e-9, abs=slack)
        assert g[4] == pytest.approx(w[4], rel=1e-9, abs=slack / g[0])


# The grouping path's boundaries: a single int key is its own group id up
# to a span of max(rows, 1024); any other key is ranked, combined in mixed
# radix and re-densified once the radix product outgrows that bound.

_ALL_FUNCS = ["COUNT", "SUM", "MIN", "MAX", "AVG", "SUM", "AVG"]


def _same(a, b):
    """Equal with the same type, NaN compared as NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def _assert_same_groups(got, want):
    # Same groups in the scalar loop's ascending key order, same finals.
    assert list(got.groups) == list(want)
    for key, states in got.groups.items():
        finals = [s.final() for s in states]
        ref = [s.final() for s in want[key]]
        assert all(map(_same, finals, ref)), (key, finals, ref)


def _aggregate_both(keys, n, rng):
    values = rng.integers(-4096, 4096, n) / 16.0
    ints = rng.integers(-(10**9), 10**9, n)
    arrays = [None, values, values, values, values, ints, ints]
    return (partial_aggregate(keys, _ALL_FUNCS, arrays, n),
            _reference_partial_aggregate(keys, _ALL_FUNCS, arrays, n))


@pytest.mark.parametrize("rows", [50, 2000])
@pytest.mark.parametrize("past_cap", [-1, 0, 1])
def test_int_key_span_at_the_direct_id_boundary(rows, past_cap):
    cap = max(rows, 1024)
    span = cap + past_cap
    rng = np.random.default_rng(rows + past_cap)
    keys = rng.integers(0, span, rows) - 7
    keys[0], keys[1] = -7, span - 8  # pin the span exactly
    _ids, size, _keys_at = _group_ids([keys], rows)
    assert size == (span if span <= cap else len(np.unique(keys)))
    _assert_same_groups(*_aggregate_both([keys], rows, rng))


@pytest.mark.parametrize(
    "keys",
    [
        np.array([-5, -1, -5, -3, -1], dtype=np.int64),
        np.array([-(2**63), 2**63 - 1, -(2**63), 0, 2**63 - 1], dtype=np.int64),
        np.array([2**63 - 1, 2**63 - 3, 2**63 - 1], dtype=np.int64),
        np.array([-(2**63), -(2**63) + 2, -(2**63)], dtype=np.int64),
        np.array([-128, 127, 0, -128], dtype=np.int8),
        np.array([True, False, True, True], dtype=bool),
        np.array([42], dtype=np.int64),
        np.array([-0.5], dtype=np.float64),
    ],
    ids=["negative", "wide", "near-max", "near-min", "int8-full-span", "bool", "one-row",
         "one-float-row"],
)
def test_edge_keys_match_scalar_reference(keys):
    got, want = _aggregate_both([keys], len(keys), np.random.default_rng(3))
    _assert_same_groups(got, want)
    # bool keys stay bools, not the 0/1 of an integer id
    assert [type(k[0]) for k in got.groups] == [type(k[0]) for k in want]


@pytest.mark.parametrize("seed", range(4))
def test_radix_product_beyond_rows_is_redensified(seed):
    rng = np.random.default_rng(seed)
    n = 300
    k1 = rng.integers(-(10**12), 10**12, 40)[rng.integers(0, 40, n)]
    k2 = _column("str", rng.integers(0, 10**6, 40)[rng.integers(0, 40, n)].tolist())
    k3 = rng.integers(0, 3, n)
    assert len(np.unique(k1)) * len(np.unique(k2)) > max(n, 1024)
    keys = [k1, k2, k3]
    ids, size, _keys_at = _group_ids(keys, n)
    assert size <= max(n, 1024) and ids.max() < size
    _assert_same_groups(*_aggregate_both(keys, n, rng))


nan_floats = st.one_of(exact_floats, st.just(float("nan")))


@pytest.mark.parametrize("grouped", [True, False])
@given(data=st.data())
def test_nan_arguments_propagate_like_scalar_reference(grouped, data):
    n = data.draw(st.integers(1, 40))
    keys = [_column("int", data.draw(st.lists(small_ints, min_size=n, max_size=n)))]
    keys = keys if grouped else []
    values = np.asarray(data.draw(st.lists(nan_floats, min_size=n, max_size=n)), dtype=np.float64)
    funcs = ["SUM", "MIN", "MAX", "AVG"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = partial_aggregate(keys, funcs, [values] * 4, n)
    _assert_same_groups(got, _reference_partial_aggregate(keys, funcs, [values] * 4, n))


@given(data=st.data(), family=key_families)
def test_string_min_max_match_scalar_reference(data, family):
    n = data.draw(st.integers(1, 40))
    keys = _column(family, data.draw(st.lists(_family_strategy(family), min_size=n, max_size=n)))
    values = _column("str", data.draw(st.lists(words, min_size=n, max_size=n)))
    funcs = ["MIN", "MAX", "COUNT"]
    got = partial_aggregate([keys], funcs, [values] * 3, n)
    _assert_same_groups(got, _reference_partial_aggregate([keys], funcs, [values] * 3, n))


def test_int64_sum_exact_beyond_double_precision_in_one_group():
    values = np.array([2**53 + 1, 5, 2**53 + 3, 2**60 + 1], dtype=np.int64)
    keys = np.array([0, 1, 0, 0], dtype=np.int64)
    got = partial_aggregate([keys], ["SUM", "AVG"], [values] * 2, 4)
    want = _reference_partial_aggregate([keys], ["SUM", "AVG"], [values] * 2, 4)
    assert got.groups[(0,)][0].final() == 2**53 + 1 + 2**53 + 3 + 2**60 + 1
    _assert_same_groups(got, want)


@given(values=st.lists(st.floats(-1e300, 1e300), min_size=0, max_size=60))
def test_global_aggregate_is_the_scalar_state_over_the_column(values):
    # Arbitrary doubles, not only sixteenths: without GROUP BY the partial
    # is AggregateState.update over the whole column, bit for bit.
    arr = np.asarray(values, dtype=np.float64)
    funcs = ["SUM", "AVG", "MIN", "MAX", "COUNT"]
    got = partial_aggregate([], funcs, [arr] * 5, len(arr))
    for func, state in zip(funcs, got.groups[()]):
        scalar = make_state(func)
        scalar.update(arr)
        assert _same(state.final(), scalar.final()), func


# -- sort ------------------------------------------------------------------


@given(data=st.data())
def test_sort_frame_matches_scalar_reference(data):
    n = data.draw(st.integers(0, 40))
    families = data.draw(st.lists(key_families, min_size=1, max_size=3))
    cols = {}
    keys = []
    for i, family in enumerate(families):
        col = _column(
            family, data.draw(st.lists(_family_strategy(family), min_size=n, max_size=n))
        )
        cols[f"k{i}"] = col
        keys.append((col, data.draw(st.booleans())))
    cols["row"] = np.arange(n, dtype=np.int64)  # witnesses tie order
    frame = Frame(cols, n)
    _assert_frames_equal(sort_frame(frame, keys), _reference_sort_frame(frame, keys))


@given(data=st.data())
def test_sort_frame_nan_keys_match_scalar_reference(data):
    # The scalar tie-fix loop saw each NaN as a distinct key, so a
    # descending sort emitted NaN rows in reversed input order; the
    # lexsort path must reproduce that (and ascending input order).
    n = data.draw(st.integers(0, 30))
    nan_floats = st.one_of(exact_floats, st.just(float("nan")))
    k1 = np.asarray(
        data.draw(st.lists(small_ints, min_size=n, max_size=n)), dtype=np.int64
    )
    k2 = np.asarray(
        data.draw(st.lists(nan_floats, min_size=n, max_size=n)), dtype=np.float64
    )
    keys = [(k1, data.draw(st.booleans())), (k2, data.draw(st.booleans()))]
    frame = Frame({"k1": k1, "k2": k2, "row": np.arange(n, dtype=np.int64)}, n)
    got = sort_frame(frame, keys)
    want = _reference_sort_frame(frame, keys)
    # Compare the row witness: tolist() equality can't see NaN columns.
    assert got.columns["row"].tolist() == want.columns["row"].tolist()


def test_stable_order_narrow_int_dtypes_full_span():
    # A span exceeding the input dtype's positive range must not wrap
    # when rebasing for the radix path.
    from repro.engine.operators import _stable_order

    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        col = np.array([info.max, info.min, 0, 100, -100, 0], dtype=dtype)
        order = _stable_order(col)
        assert col[order].tolist() == sorted(col.tolist())
        # stability: the two zeros keep input order
        zero_positions = [int(i) for i in order if col[i] == 0]
        assert zero_positions == [2, 5]


# -- RLE codec -------------------------------------------------------------


@given(bits=st.lists(st.booleans(), min_size=0, max_size=400))
def test_rle_payload_and_roundtrip_match_scalar_reference(bits):
    bv = BitVector.from_bool_array(np.asarray(bits, dtype=bool))
    payload, length = rle_compress(bv)
    ref_payload, ref_length = _reference_rle_compress(bv)
    assert payload == ref_payload  # byte-format compatibility
    assert length == ref_length
    back = rle_decompress(payload, length)
    assert back.to_bool_array().tolist() == bits


def test_rle_long_run_chunking_matches_scalar_reference():
    # A single run longer than 0xFFFF bytes must split into uint16 chunks
    # exactly like the byte loop did.
    bv = BitVector.from_bool_array(np.ones(0x10002 * 8, dtype=bool))
    payload, length = rle_compress(bv)
    ref_payload, ref_length = _reference_rle_compress(bv)
    assert (payload, length) == (ref_payload, ref_length)
    assert rle_decompress(payload, length).count() == 0x10002 * 8
