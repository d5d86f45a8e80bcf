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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

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
        value = other.value  # type: ignore[attr-defined]
        # A NaN wins, as in np.minimum: the result is NaN whichever
        # partial holds it and whichever arrives first.
        if value is not None and (self.value is None or value < self.value or value != value):
            self.value = value

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
        value = other.value  # type: ignore[attr-defined]
        if value is not None and (self.value is None or value > self.value or value != value):
            self.value = value

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


def _dense_codes(col: np.ndarray) -> Tuple[np.ndarray, int]:
    """``(codes, cardinality)``: each value's rank among sorted distinct
    values, order-equivalent to ``np.unique(col, return_inverse=True)``.

    String columns are ranked by hashing — one dict probe per row plus a
    sort of the distinct values.  Sorting the object array instead costs
    ``n log n`` string comparisons per task, which made a group-by on a
    string key cost in proportion to how many rows the query's
    predicates let through.  Anything that is not all ``str`` takes
    ``np.unique``.
    """
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


def _group_ids(
    key_arrays: Sequence[np.ndarray], num_rows: int
) -> Tuple[np.ndarray, int, Callable[[np.ndarray], List[list]]]:
    """Each row's group id, ascending with the key tuple (``np.unique`` order).

    Returns ``(ids, size, keys_at)``: row ``r`` falls in bin ``ids[r]`` of
    ``[0, size)``, some bins may be empty, and ``keys_at(bins)`` gives,
    per key column, the Python key values of the occupied ``bins``.

    A single integer key spanning at most ``max(num_rows, 1024)`` values
    is its own id (``key - lo``), so it is neither sorted nor ranked.  Any
    other key is ranked per column (``_dense_codes``), the ranks are
    combined in mixed radix and re-densified whenever the radix product
    outgrows that bound; a group's key values are then its first row's.
    """
    cap = max(num_rows, 1024)
    if len(key_arrays) == 1 and key_arrays[0].dtype.kind == "i":
        col = key_arrays[0]
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        if span <= cap:
            # Widen before rebasing: a narrow dtype would wrap in ``col - lo``.
            ids = col.astype(np.int64, copy=False)
            if lo:
                ids = ids - lo
            return ids, span, lambda bins: [(bins + lo).tolist()]
    ids, size = np.zeros(num_rows, dtype=np.int64), 1
    for col in key_arrays:
        codes, cardinality = _dense_codes(col)
        ids = codes if size == 1 else ids * np.int64(cardinality) + codes
        size *= cardinality
        if size > cap:
            uniques, ids = np.unique(ids, return_inverse=True)
            size = len(uniques)

    def keys_at(bins: np.ndarray) -> List[list]:
        first = np.full(size, num_rows, dtype=np.int64)
        np.minimum.at(first, ids, np.arange(num_rows, dtype=np.int64))
        reps = first[bins]
        return [_canonical_key_values(col[reps].tolist()) for col in key_arrays]

    return ids, size, keys_at


def _group_states(func: str, arr: Optional[np.ndarray], ids, size, bins, counts):
    """All groups' states for one aggregate, built from one scatter reduction.

    The rows are reduced into ``size`` bins in one pass (``np.bincount``
    or ``np.ufunc.at``) and read at the occupied ``bins``; states are then
    mass-allocated via ``__new__`` and filled in a tight loop — no sort,
    no per-group slicing or dispatch.

    Integer SUM/AVG scatter-add into int64, exact and wrapping as
    ``np.sum`` does.  Float SUM/AVG take ``np.bincount(weights=)``, which
    adds each group's rows left to right where the scalar path's
    ``values.sum()`` adds pairwise, so they can differ from it in the last
    ulps for large groups.  COUNT, MIN and MAX are exact; MIN/MAX start
    from a member of each group, so NaN propagates and strings compare as
    strings.
    """
    num_groups = len(counts)
    if func == "COUNT" or arr is None:
        states = list(map(CountState.__new__, repeat(CountState, num_groups)))
        for state, n in zip(states, counts):
            state.n = n
        return states
    if func == "SUM" or func == "AVG":
        exact = arr.dtype.kind in "biu"
        if exact:
            sums = np.zeros(size, dtype=np.int64)
            np.add.at(sums, ids, arr.astype(np.int64, copy=False))
        else:
            sums = np.bincount(ids, weights=arr, minlength=size)
        totals = sums[bins].tolist()
        if func == "SUM":
            states = list(map(SumState.__new__, repeat(SumState, num_groups)))
            for state, total in zip(states, totals):
                state.total = total
                state.seen = True
            return states
        if exact:
            # Convert each exact int64 total once: element-wise float
            # conversion first would lose low bits of values beyond 2**53.
            totals = [float(t) for t in totals]
        states = list(map(AvgState.__new__, repeat(AvgState, num_groups)))
        for state, total, n in zip(states, totals, counts):
            state.total = total
            state.n = n
        return states
    if func == "MIN" or func == "MAX":
        ufunc = np.minimum if func == "MIN" else np.maximum
        values = np.empty(size, dtype=arr.dtype)
        values[ids] = arr
        with np.errstate(invalid="ignore"):
            ufunc.at(values, ids, arr)
        cls = MinState if func == "MIN" else MaxState
        states = list(map(cls.__new__, repeat(cls, num_groups)))
        for state, value in zip(states, values[bins].tolist()):
            state.value = value
        return states
    raise ExecutionError(f"unknown aggregate function {func!r}")


def partial_aggregate(
    key_arrays: Sequence[np.ndarray],
    agg_funcs: Sequence[str],
    agg_arrays: Sequence[Optional[np.ndarray]],
    num_rows: int,
) -> GroupedPartial:
    """Aggregate one frame into per-group partial states.

    ``agg_arrays[i]`` is None for COUNT(*) (row counting needs no column).

    All reductions are vectorized: every row gets a dense group id
    (``_group_ids``), then every aggregate computes all groups' values in
    one scatter pass over its column — no sort and no per-group slicing
    loop.  Without GROUP BY each state reduces its column where it lies.
    """
    partial = GroupedPartial(num_keys=len(key_arrays), agg_funcs=list(agg_funcs))
    partial.rows_scanned = num_rows
    if not key_arrays:
        # A global aggregate yields its one row even over zero rows.
        for state, arr in zip(partial.state_for(()), agg_arrays):
            if arr is None:
                state.update_count(num_rows)
            else:
                state.update(arr)
        return partial
    if num_rows == 0:
        return partial
    ids, size, keys_at = _group_ids(key_arrays, num_rows)
    counts = np.bincount(ids, minlength=size)
    bins = np.flatnonzero(counts)
    counts = counts[bins].tolist()
    columns = [
        _group_states(func, arr, ids, size, bins, counts)
        for func, arr in zip(partial.agg_funcs, agg_arrays)
    ]
    keys = zip(*keys_at(bins))
    partial.groups = dict(zip(keys, map(list, zip(*columns))))
    return partial
