"""Mergeable partial aggregates, held as columns.

Feisu aggregates bottom-up through its server tree: leaves produce
partial states per group, stem servers merge them, and the master
finalizes (§III-B).  A partial here is columnar — its group keys, each
group's row count and one state column per aggregate — so a leaf builds
it with one scatter per aggregate, a merge regroups any number of
partials with one scatter per state column (Hespe et al., PAPERS.md,
merge per node with vector reductions), and a partial knows its own
approximate wire size so the network model can charge realistic
transfer costs.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError, IntegerOverflowError


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


#: The shared counts column of a partial that has no group.
_NO_ROWS = np.zeros(0, dtype=np.int64)
_NO_ROWS.flags.writeable = False


class GroupedPartial:
    """Partial aggregation result travelling leaf → stem → master.

    Group ``g`` has the key values ``keys[k][g]``, ``counts[g]`` rows
    (int64, at least one) and, for aggregate ``j``, the state
    ``states[j][g]``:

    * COUNT: the row count (the ``counts`` column itself);
    * SUM: the sum, int64 for an integer or bool argument, else float64;
    * AVG: the sum as float64, read with the count;
    * MIN / MAX: the value, typed as the argument (object for strings).

    A partial with no group holds no column.  A global aggregate (no
    keys) over zero rows is such a partial; :meth:`finals` and
    ``finalize`` give it its one row, COUNT 0 and every other aggregate
    NULL.
    """

    __slots__ = ("num_keys", "agg_funcs", "keys", "counts", "states", "rows_scanned")

    def __init__(
        self,
        num_keys: int,
        agg_funcs: List[str],
        keys: Sequence[np.ndarray] = (),
        counts: np.ndarray = _NO_ROWS,
        states: Sequence[np.ndarray] = (),
        rows_scanned: int = 0,
    ):
        self.num_keys = num_keys
        self.agg_funcs = agg_funcs
        self.keys = keys
        self.counts = counts
        self.states = states
        #: Rows the producing task actually scanned (partial-result accounting).
        self.rows_scanned = rows_scanned

    @property
    def num_groups(self) -> int:
        return len(self.counts)

    def merge(self, *others: "GroupedPartial") -> "GroupedPartial":
        """This partial's groups and ``others``', regrouped into a new one.

        The columns are concatenated in argument order, regrouped by
        ``_group_ids`` (so the groups come in ascending key order) and
        reduced by one scatter per state column.  A float sum adds a
        group's states left to right from 0.0, so it does not depend on
        how a query's partials were built, only on their order; MIN / MAX
        keep the first of equal values and let a NaN win.  An integer SUM
        that leaves int64 raises ``IntegerOverflowError("integer overflow")``,
        sqlite's answer.  A lone partial whose key tuples are already
        distinct is its own regrouping and keeps its order (no state of a
        partial is a float sum of -0.0, which 0.0 + would change).
        """
        funcs = self.agg_funcs
        rows_scanned = self.rows_scanned
        parts = [self] if len(self.counts) else []
        for other in others:
            if other.num_keys != self.num_keys or other.agg_funcs != funcs:
                raise ExecutionError("cannot merge incompatible partials")
            rows_scanned += other.rows_scanned
            if len(other.counts):
                parts.append(other)
        out = GroupedPartial(self.num_keys, funcs, rows_scanned=rows_scanned)
        if not parts:
            return out
        if len(parts) == 1:
            # A regrouping of one partial (the eager join's) reads its
            # columns where they lie, and is the partial itself when its
            # key tuples are already distinct.
            (part,) = parts
            counts, keys, columns = part.counts, part.keys, part.states
            if _distinct(keys, len(counts)):
                out.keys, out.counts, out.states = keys, counts, columns
                return out
        else:
            counts = np.concatenate([p.counts for p in parts])
            keys = [np.concatenate([p.keys[k] for p in parts]) for k in range(self.num_keys)]
            columns = [
                None if func == "COUNT" else np.concatenate([p.states[j] for p in parts])
                for j, func in enumerate(funcs)
            ]
        ids, size, keys_at = _group_ids(keys, len(counts))
        totals = np.bincount(ids, weights=counts, minlength=size)
        bins = totals.nonzero()[0]
        out.counts = totals[bins].astype(np.int64)
        backwards = ids[::-1]
        states = []
        for func, col in zip(funcs, columns):
            if func == "COUNT":
                col = out.counts
            elif func == "MIN" or func == "MAX":
                # Scanned backwards, the scatter keeps the first of equal values.
                col = _extremes(func, col[::-1], backwards, size)[bins]
            elif col.dtype.kind == "i":
                col = _exact_int_sums(ids, size, col)[bins]
            else:
                col = np.bincount(ids, weights=col, minlength=size)[bins]
            states.append(col)
        out.states = states
        out.keys = keys_at(bins)
        return out

    def final_columns(self) -> List[np.ndarray]:
        """Each aggregate's final value per group, in group order."""
        return [
            col / self.counts if func == "AVG" else col
            for func, col in zip(self.agg_funcs, self.states)
        ]

    def finals(self) -> Dict[Tuple, list]:
        """Each group's key tuple → its aggregates' final values, as
        Python values; a NaN key component is the one shared ``_NAN_KEY``."""
        if not len(self.counts):
            if self.num_keys:
                return {}
            return {(): [0 if f == "COUNT" else None for f in self.agg_funcs]}
        keys = zip(*(_canonical_key_values(k.tolist()) for k in self.keys)) if self.keys else [()]
        values = zip(*(col.tolist() for col in self.final_columns()))
        return dict(zip(keys, map(list, values)))

    def estimated_bytes(self) -> int:
        """Wire-size estimate for the network cost model."""
        per_group = 16 * self.num_keys + 24 * len(self.agg_funcs)
        return 64 + per_group * (len(self.counts) if self.num_keys else 1)


#: The one NaN used in every group-key tuple.  ``nan != nan``, but tuple
#: equality (and dict hashing in Python ≥3.10) short-circuits on object
#: identity — so distinct NaN floats read out of different partials would
#: never find each other as dict keys, while a single shared object does.
_NAN_KEY = float("nan")


def _canonical_key_values(values: List) -> List:
    """Replace every NaN key component with the shared ``_NAN_KEY``."""
    return [_NAN_KEY if isinstance(v, float) and v != v else v for v in values]


def _distinct(key_arrays: Sequence[np.ndarray], num_rows: int) -> bool:
    """Whether no two rows share a key tuple (NaN equal to NaN)."""
    columns = [
        _canonical_key_values(col.tolist()) if col.dtype.kind == "f" else col.tolist()
        for col in key_arrays
    ]
    return len(set(zip(*columns))) == num_rows if columns else num_rows == 1


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
        if uniques is not None and set(map(type, uniques)) <= {str}:
            rank = dict(zip(uniques, range(len(uniques))))
            codes = np.fromiter(map(rank.__getitem__, values), np.int64, len(values))
            return codes, len(uniques)
    uniques, codes = np.unique(col, return_inverse=True)
    return codes.astype(np.int64), len(uniques)


def _group_ids(
    key_arrays: Sequence[np.ndarray], num_rows: int
) -> Tuple[np.ndarray, int, Callable[[np.ndarray], List[np.ndarray]]]:
    """Each row's group id, ascending with the key tuple (``np.unique`` order).

    Returns ``(ids, size, keys_at)``: row ``r`` falls in bin ``ids[r]`` of
    ``[0, size)``, some bins may be empty, and ``keys_at(bins)`` gives,
    per key column, the key values of the occupied ``bins`` as an array.

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
            return ids, span, lambda bins: [bins + lo]
    ids, size = np.zeros(num_rows, dtype=np.int64), 1
    for col in key_arrays:
        codes, cardinality = _dense_codes(col)
        ids = codes if size == 1 else ids * np.int64(cardinality) + codes
        size *= cardinality
        if size > cap:
            uniques, ids = np.unique(ids, return_inverse=True)
            size = len(uniques)

    def keys_at(bins: np.ndarray) -> List[np.ndarray]:
        if not key_arrays:
            return []
        # Assigned backwards, each bin keeps its first row (of repeated
        # indices the last assignment stays, as ``_extremes`` relies on).
        first = np.empty(size, dtype=np.int64)
        first[ids[::-1]] = np.arange(num_rows - 1, -1, -1, dtype=np.int64)
        reps = first[bins]
        return [col[reps] for col in key_arrays]

    return ids, size, keys_at


def _extremes(func: str, arr: np.ndarray, ids: np.ndarray, size: int) -> np.ndarray:
    """Each bin's MIN or MAX of ``arr`` (bins no row hits are garbage).

    Every bin starts from one of its own rows, so NaN propagates and
    strings compare as strings; of equal values (``0.0`` and ``-0.0``)
    the last row's stays.
    """
    values = np.empty(size, dtype=arr.dtype)
    values[ids] = arr
    ufunc = np.minimum if func == "MIN" else np.maximum
    if arr.dtype.kind == "f" and np.isnan(arr).any():
        with np.errstate(invalid="ignore"):  # a NaN operand flags "invalid"
            ufunc.at(values, ids, arr)
    else:
        ufunc.at(values, ids, arr)
    return values


def _exact_int_sums(ids: np.ndarray, size: int, values: np.ndarray) -> np.ndarray:
    """Each bin's sum of int64 ``values``, exact, or
    ``IntegerOverflowError("integer overflow")`` when one leaves int64.

    The 32-bit halves are summed apart (neither sum can wrap below 2^31
    rows), the low half's carry moves up, and the total fits iff the
    high half does in 32 bits.
    """
    hi = np.zeros(size, dtype=np.int64)
    np.add.at(hi, ids, values >> 32)
    lo = np.zeros(size, dtype=np.int64)
    np.add.at(lo, ids, values & 0xFFFFFFFF)
    hi += lo >> 32
    if ((hi + 2**31) >> 32).any():
        raise IntegerOverflowError("integer overflow")
    return (hi << 32) | (lo & 0xFFFFFFFF)


def _int_sum_cannot_wrap(values: np.ndarray) -> bool:
    """``max|x| · rows < 2^63`` for a non-empty integer column: no sum of
    any of its rows leaves int64."""
    lo, hi = int(np.minimum.reduce(values)), int(np.maximum.reduce(values))
    return (hi if hi > -lo else -lo) * values.size < 2**63


def _grouped_state(func: str, arr: Optional[np.ndarray], ids, size, bins, counts) -> np.ndarray:
    """One aggregate's state column over the occupied ``bins``, from one
    scatter reduction of its rows into ``size`` bins.

    Integer SUM scatter-adds into int64 where no sum can wrap, and
    otherwise sums exactly (``_exact_int_sums``), raising
    ``IntegerOverflowError("integer overflow")`` when a group's total
    leaves int64.  Integer AVG scatter-adds into int64, wrapping as ``np.sum``
    does, and converts each total once.  Float SUM/AVG take
    ``np.bincount(weights=)``, which adds each group's rows left to right
    where the scalar path's ``values.sum()`` adds pairwise, so they can
    differ from it in the last ulps for large groups.
    """
    if func == "COUNT" or arr is None:
        return counts
    if func == "SUM" or func == "AVG":
        kind = arr.dtype.kind
        if kind in "biu":
            values = arr.astype(np.int64, copy=False)
            if func == "SUM" and kind != "b" and not _int_sum_cannot_wrap(arr):
                return _exact_int_sums(ids, size, values)[bins]
            sums = np.zeros(size, dtype=np.int64)
            np.add.at(sums, ids, values)
            return sums[bins] if func == "SUM" else sums[bins].astype(np.float64)
        return np.bincount(ids, weights=arr, minlength=size)[bins]
    if func == "MIN" or func == "MAX":
        return _extremes(func, arr, ids, size)[bins]
    raise ExecutionError(f"unknown aggregate function {func!r}")


def _global_state(func: str, arr: Optional[np.ndarray], counts: np.ndarray) -> np.ndarray:
    """One aggregate's state over a whole column, reduced where it lies
    (a float sum is ``np.sum``'s, pairwise; an integer SUM that could
    wrap is summed exactly, as in ``_grouped_state``)."""
    if func == "COUNT" or arr is None:
        return counts
    if func == "SUM" or func == "AVG":
        kind = arr.dtype.kind
        if kind in "biu":
            if func == "SUM" and kind != "b" and not _int_sum_cannot_wrap(arr):
                ids = np.zeros(arr.size, dtype=np.int64)
                return _exact_int_sums(ids, 1, arr.astype(np.int64, copy=False))
            return np.array([arr.sum()], dtype=np.int64 if func == "SUM" else np.float64)
        # From 0.0, as a merge adds: a sum of -0.0 reads 0.0 either way.
        return np.array([0.0 + arr.sum()], dtype=np.float64)
    if func == "MIN" or func == "MAX":
        return arr.min(keepdims=True) if func == "MIN" else arr.max(keepdims=True)
    raise ExecutionError(f"unknown aggregate function {func!r}")


def partial_aggregate(
    key_arrays: Sequence[np.ndarray],
    agg_funcs: Sequence[str],
    agg_arrays: Sequence[Optional[np.ndarray]],
    num_rows: int,
) -> GroupedPartial:
    """Aggregate one frame into per-group partial state columns.

    ``agg_arrays[i]`` is None for COUNT(*) (row counting needs no column).

    All reductions are vectorized: every row gets a dense group id
    (``_group_ids``), then every aggregate computes all groups' states in
    one scatter pass over its column — no sort, no per-group slicing loop
    and no per-group object.  Without GROUP BY each aggregate reduces its
    column where it lies.
    """
    partial = GroupedPartial(num_keys=len(key_arrays), agg_funcs=list(agg_funcs))
    partial.rows_scanned = num_rows
    if num_rows == 0:
        return partial
    if not key_arrays:
        counts = partial.counts = np.array([num_rows], dtype=np.int64)
        partial.states = list(map(_global_state, agg_funcs, agg_arrays, repeat(counts)))
        return partial
    ids, size, keys_at = _group_ids(key_arrays, num_rows)
    counts = np.bincount(ids, minlength=size)
    bins = counts.nonzero()[0]
    counts = partial.counts = counts[bins]
    partial.states = [
        _grouped_state(func, arr, ids, size, bins, counts)
        for func, arr in zip(agg_funcs, agg_arrays)
    ]
    partial.keys = keys_at(bins)
    return partial
