"""Mergeable aggregate states.

Feisu aggregates bottom-up through its server tree: leaves produce
partial states per group, stem servers merge them, and the master
finalizes (§III-B).  Every state here therefore supports the classic
``update / merge / final`` contract, and grouped partials know their own
approximate wire size so the network model can charge realistic transfer
costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.operators import _stable_order
from repro.errors import ExecutionError


class AggregateState:
    """One aggregate's running state for one group."""

    func = "?"

    def update(self, values: Optional[np.ndarray]) -> None:
        raise NotImplementedError

    def merge(self, other: "AggregateState") -> None:
        raise NotImplementedError

    def final(self):
        raise NotImplementedError


class CountState(AggregateState):
    func = "COUNT"

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def update(self, values: Optional[np.ndarray]) -> None:
        if values is None:
            raise ExecutionError("COUNT update needs a row count or values")
        self.n += len(values)

    def update_count(self, n: int) -> None:
        self.n += n

    def merge(self, other: AggregateState) -> None:
        self.n += other.n  # type: ignore[attr-defined]

    def final(self) -> int:
        return self.n


class SumState(AggregateState):
    func = "SUM"

    __slots__ = ("total", "seen")

    def __init__(self) -> None:
        self.total = 0
        self.seen = False

    def update(self, values: Optional[np.ndarray]) -> None:
        if values is None or len(values) == 0:
            return
        self.total = self.total + values.sum()
        self.seen = True

    def merge(self, other: AggregateState) -> None:
        if other.seen:  # type: ignore[attr-defined]
            self.total = self.total + other.total  # type: ignore[attr-defined]
            self.seen = True

    def final(self):
        if not self.seen:
            return None  # SQL SUM over zero rows is NULL
        if isinstance(self.total, (np.integer, int)):
            return int(self.total)
        return float(self.total)


class MinState(AggregateState):
    func = "MIN"

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = None

    def update(self, values: Optional[np.ndarray]) -> None:
        if values is None or len(values) == 0:
            return
        lo = values.min()
        if self.value is None or lo < self.value:
            self.value = lo

    def merge(self, other: AggregateState) -> None:
        if other.value is not None:  # type: ignore[attr-defined]
            if self.value is None or other.value < self.value:  # type: ignore[attr-defined]
                self.value = other.value  # type: ignore[attr-defined]

    def final(self):
        return _to_python(self.value)


class MaxState(AggregateState):
    func = "MAX"

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = None

    def update(self, values: Optional[np.ndarray]) -> None:
        if values is None or len(values) == 0:
            return
        hi = values.max()
        if self.value is None or hi > self.value:
            self.value = hi

    def merge(self, other: AggregateState) -> None:
        if other.value is not None:  # type: ignore[attr-defined]
            if self.value is None or other.value > self.value:  # type: ignore[attr-defined]
                self.value = other.value  # type: ignore[attr-defined]

    def final(self):
        return _to_python(self.value)


class AvgState(AggregateState):
    func = "AVG"

    __slots__ = ("total", "n")

    def __init__(self) -> None:
        self.total = 0.0
        self.n = 0

    def update(self, values: Optional[np.ndarray]) -> None:
        if values is None or len(values) == 0:
            return
        self.total += float(values.sum())
        self.n += len(values)

    def merge(self, other: AggregateState) -> None:
        self.total += other.total  # type: ignore[attr-defined]
        self.n += other.n  # type: ignore[attr-defined]

    def final(self) -> Optional[float]:
        return self.total / self.n if self.n else None


_STATE_FACTORY = {
    "COUNT": CountState,
    "SUM": SumState,
    "MIN": MinState,
    "MAX": MaxState,
    "AVG": AvgState,
}


def make_state(func: str) -> AggregateState:
    try:
        return _STATE_FACTORY[func]()
    except KeyError:
        raise ExecutionError(f"unknown aggregate function {func!r}") from None


def _to_python(value):
    if value is None:
        return None
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def group_rows(key_columns: Sequence[np.ndarray], num_rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """Assign each row a dense group id.

    Returns ``(group_ids, representative_indices)`` where
    ``representative_indices[g]`` is the first row of group ``g``.
    With no key columns every row lands in group 0.
    """
    if not key_columns:
        ids = np.zeros(num_rows, dtype=np.int64)
        reps = np.zeros(1 if num_rows else 0, dtype=np.int64)
        if num_rows == 0:
            return ids, reps
        return ids, np.array([0], dtype=np.int64)
    combined = None
    for col in key_columns:
        uniques, codes = np.unique(col, return_inverse=True)
        codes = codes.astype(np.int64)
        if combined is None:
            combined = codes
        else:
            combined = combined * np.int64(len(uniques)) + codes
    _, reps, ids = np.unique(combined, return_index=True, return_inverse=True)
    return ids.astype(np.int64), reps.astype(np.int64)


@dataclass
class GroupedPartial:
    """Partial aggregation result travelling leaf → stem → master.

    ``groups`` maps the tuple of group-key values to one state per
    aggregate, in the plan's aggregate order.
    """

    num_keys: int
    agg_funcs: List[str]
    groups: Dict[Tuple, List[AggregateState]] = field(default_factory=dict)
    #: Rows the producing task actually scanned (partial-result accounting).
    rows_scanned: int = 0

    def state_for(self, key: Tuple) -> List[AggregateState]:
        states = self.groups.get(key)
        if states is None:
            states = [make_state(f) for f in self.agg_funcs]
            self.groups[key] = states
        return states

    def merge(self, other: "GroupedPartial") -> None:
        if other.num_keys != self.num_keys or other.agg_funcs != self.agg_funcs:
            raise ExecutionError("cannot merge incompatible partials")
        for key, states in other.groups.items():
            mine = self.state_for(key)
            for a, b in zip(mine, states):
                a.merge(b)
        self.rows_scanned += other.rows_scanned

    def estimated_bytes(self) -> int:
        """Wire-size estimate for the network cost model."""
        per_group = 16 * self.num_keys + 24 * len(self.agg_funcs)
        return 64 + per_group * len(self.groups)


#: The one NaN used in every group-key tuple.  ``nan != nan``, but tuple
#: equality (and dict hashing in Python ≥3.10) short-circuits on object
#: identity — so distinct NaN floats produced by different tasks would
#: never merge into one group, while a single shared object always does.
_NAN_KEY = float("nan")


def _canonical_key_values(values: List) -> List:
    """Replace every NaN key component with the shared ``_NAN_KEY``."""
    return [_NAN_KEY if isinstance(v, float) and v != v else v for v in values]


#: ``(source, index)`` with ``column == source[index]`` (``Frame.gathered``).
Gather = Tuple[np.ndarray, np.ndarray]


def _dense_codes(col: np.ndarray, gather: Optional[Gather] = None) -> Tuple[np.ndarray, int]:
    """``(codes, cardinality)``: each value's rank among sorted distinct
    values, order-equivalent to ``np.unique(col, return_inverse=True)``.

    A column a join gathered from a shorter build side is ranked on that
    side and the ranks mapped through the gather index (the cardinality
    is then the build side's).  Other string columns are ranked by
    hashing — one dict probe per row plus a sort of the distinct values.
    Sorting the object array instead costs ``n log n`` string comparisons
    per task, which made a group-by on a string key cost in proportion
    to how many rows the query's predicates let through.  Anything that
    is not all ``str`` takes ``np.unique``.
    """
    if gather is not None and len(gather[0]) <= len(col):
        codes, cardinality = _dense_codes(gather[0])
        return codes[gather[1]], cardinality
    if col.dtype == object:
        values = col.tolist()
        try:
            uniques = sorted(set(values))
        except TypeError:  # unhashable or mutually unorderable values
            uniques = None
        if uniques is not None and all(type(u) is str for u in uniques):
            rank = dict(zip(uniques, range(len(uniques))))
            codes = np.fromiter(map(rank.__getitem__, values), np.int64, len(values))
            return codes, len(uniques)
    uniques, codes = np.unique(col, return_inverse=True)
    return codes.astype(np.int64), len(uniques)


def _group_order(
    key_arrays: Sequence[np.ndarray],
    num_rows: int,
    key_gathers: Optional[Sequence[Optional[Gather]]] = None,
):
    """One stable sort bringing equal key tuples together.

    Returns ``(order, starts)``: ``order`` permutes rows so each group is
    a contiguous run beginning at ``starts[g]``; groups appear in key
    sort order (matching ``np.unique``), rows within a group in input
    order.  The single-key fast path needs no factorize pass for numeric
    keys — one argsort plus one adjacent-difference over the sorted values.
    """
    gathers = key_gathers or [None] * len(key_arrays)
    if len(key_arrays) == 1:
        col = key_arrays[0]
        if col.dtype == object or (
            np.issubdtype(col.dtype, np.floating) and np.isnan(col).any()
        ):
            # Strings: integer codes sort by radix, not by comparisons.
            # NaN != NaN would split every NaN row into its own group;
            # np.unique collapses NaNs into one code.
            col = _dense_codes(col, gathers[0])[0]
        order = _stable_order(col)
        svals = col[order]
        change = svals[1:] != svals[:-1]
    else:
        combined = None
        for col, gather in zip(key_arrays, gathers):
            codes, cardinality = _dense_codes(col, gather)
            if combined is None:
                combined = codes
            else:
                combined = combined * np.int64(cardinality) + codes
        order = _stable_order(combined)
        svals = combined[order]
        change = svals[1:] != svals[:-1]
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    return order, starts


def _state_column(func: str, arr: Optional[np.ndarray], sorted_arr, starts, counts):
    """All groups' states for one aggregate, built from bulk reductions.

    One ``np.ufunc.reduceat`` (or the shared ``counts`` list) computes
    every group's value; states are then mass-allocated via ``__new__``
    and filled in a tight loop — no per-group slicing or dispatch.

    ``reduceat`` accumulates float64 sums sequentially where the scalar
    path's ``values.sum()`` used pairwise summation, so SUM/AVG over
    float columns can differ from the scalar result in the last ulps for
    large groups; COUNT/MIN/MAX and integer SUM/AVG stay exact.
    """
    num_groups = len(starts)
    if func == "COUNT" or arr is None:
        states = list(map(CountState.__new__, repeat(CountState, num_groups)))
        for state, n in zip(states, counts):
            state.n = n
        return states
    if func == "SUM":
        if np.issubdtype(sorted_arr.dtype, np.integer):
            # match np.sum's promotion of narrow ints to platform int
            sorted_arr = sorted_arr.astype(np.int64)
        sums = np.add.reduceat(sorted_arr, starts)
        states = list(map(SumState.__new__, repeat(SumState, num_groups)))
        for state, total in zip(states, sums.tolist()):
            state.total = total
            state.seen = True
        return states
    if func == "MIN" or func == "MAX":
        ufunc = np.minimum if func == "MIN" else np.maximum
        values = ufunc.reduceat(sorted_arr, starts)
        cls = MinState if func == "MIN" else MaxState
        states = list(map(cls.__new__, repeat(cls, num_groups)))
        for state, value in zip(states, values.tolist()):
            state.value = value
        return states
    if func == "AVG":
        if np.issubdtype(sorted_arr.dtype, np.integer):
            # Sum exactly in int64 and convert each group total once:
            # element-wise float conversion first would lose low bits of
            # values beyond 2**53.
            totals = [
                float(t) for t in np.add.reduceat(sorted_arr.astype(np.int64), starts).tolist()
            ]
        else:
            if sorted_arr.dtype != np.float64:
                sorted_arr = sorted_arr.astype(np.float64)
            totals = np.add.reduceat(sorted_arr, starts).tolist()
        states = list(map(AvgState.__new__, repeat(AvgState, num_groups)))
        for state, total, n in zip(states, totals, counts):
            state.total = total
            state.n = n
        return states
    raise ExecutionError(f"unknown aggregate function {func!r}")


def partial_aggregate(
    key_arrays: Sequence[np.ndarray],
    agg_funcs: Sequence[str],
    agg_arrays: Sequence[Optional[np.ndarray]],
    num_rows: int,
    key_gathers: Optional[Sequence[Optional[Gather]]] = None,
) -> GroupedPartial:
    """Aggregate one frame into per-group partial states.

    ``agg_arrays[i]`` is None for COUNT(*) (row counting needs no column);
    ``key_gathers[i]``, where known, is how a join produced
    ``key_arrays[i]`` (``Frame.gathered``) and only speeds grouping up.

    All reductions are vectorized: one stable sort brings each group's
    rows together, then every aggregate computes all groups' values in a
    single ``np.ufunc.reduceat`` / counts pass over the sorted values —
    no per-group slicing loop.
    """
    partial = GroupedPartial(num_keys=len(key_arrays), agg_funcs=list(agg_funcs))
    partial.rows_scanned = num_rows
    if num_rows == 0:
        if not key_arrays:
            partial.state_for(())  # global aggregate over zero rows still yields a row
        return partial
    if not key_arrays:
        order = np.arange(num_rows, dtype=np.int64)
        starts = np.zeros(1, dtype=np.int64)
    else:
        order, starts = _group_order(key_arrays, num_rows, key_gathers)
    counts = np.diff(np.append(starts, num_rows)).tolist()
    # Sorted gathers are shared between aggregates over the same column
    # (COUNT(x) / SUM(x) / AVG(x) all reference x once).
    sorted_cache: Dict[int, np.ndarray] = {}
    columns = []
    for func, arr in zip(partial.agg_funcs, agg_arrays):
        sorted_arr = None
        if arr is not None and func != "COUNT":
            sorted_arr = sorted_cache.get(id(arr))
            if sorted_arr is None:
                sorted_arr = np.asarray(arr)[order]
                sorted_cache[id(arr)] = sorted_arr
        columns.append(_state_column(func, arr, sorted_arr, starts, counts))
    # Group-key tuples, converted to Python scalars in one pass per column.
    reps = order[starts]
    key_cols = [_canonical_key_values(col[reps].tolist()) for col in key_arrays]
    if key_cols:
        keys = zip(*key_cols)
    else:
        keys = [()]
    partial.groups = dict(zip(keys, map(list, zip(*columns))))
    return partial
