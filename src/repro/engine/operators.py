"""Relational operators over :class:`~repro.planner.expressions.Frame`.

These are the building blocks leaf servers, stem servers and the master
compose: scan (block decode + projection), filter, hash join, sort and
limit.  Grouped aggregation lives in :mod:`repro.engine.aggregates`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.block import Block
from repro.errors import ExecutionError
from repro.planner.expressions import Frame, Resolver, evaluate
from repro.sql.ast import BinaryOp, BinaryOperator, Column, Expr, JoinKind, walk


def scan_block(block: Block, columns: Sequence[str]) -> Frame:
    """Decode the requested columns of a block into a frame."""
    return Frame(block.columns(list(columns)), block.num_rows)


def apply_filter(frame: Frame, mask: np.ndarray) -> Frame:
    if len(mask) != frame.num_rows:
        raise ExecutionError(
            f"mask length {len(mask)} != frame rows {frame.num_rows}"
        )
    return frame.take(mask.astype(np.bool_))


def prefix_columns(frame: Frame, binding: str) -> Frame:
    """Qualify all column names with a table binding (pre-join)."""
    return Frame({f"{binding}.{n}": v for n, v in frame.columns.items()}, frame.num_rows)


def equi_join_keys(
    condition: Expr, left_binding: str, right_binding: str
) -> Optional[List[Tuple[Column, Column]]]:
    """Extract equi-join key pairs from an ON condition.

    Returns pairs ``(left_col, right_col)`` when the condition is a
    conjunction of cross-table equalities; None otherwise (the join then
    degrades to filtered cross product).
    """
    pairs: List[Tuple[Column, Column]] = []
    stack = [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryOp) and node.op is BinaryOperator.AND:
            stack.extend((node.left, node.right))
            continue
        if not (
            isinstance(node, BinaryOp)
            and node.op is BinaryOperator.EQ
            and isinstance(node.left, Column)
            and isinstance(node.right, Column)
        ):
            return None
        a, b = node.left, node.right
        if a.table == right_binding or (b.table == left_binding):
            a, b = b, a
        pairs.append((a, b))
    return pairs or None


def _stable_order(col: np.ndarray) -> np.ndarray:
    """Stable argsort, radix-accelerated for small-range integer keys.

    ``np.argsort(kind="stable")`` on int32/int64 is mergesort (~9x the
    cost of radix at 100k rows).  Dense key codes and typical join/group
    key columns span a small range, so they can be rebased into int16 —
    where numpy's stable sort *is* radix — or, failing that, combined
    with the row number into a unique ``code * n + row`` composite whose
    plain quicksort order equals the stable order.
    """
    n = len(col)
    if n > 1 and np.issubdtype(col.dtype, np.integer):
        lo = int(col.min())
        span = int(col.max()) - lo
        # Widen before rebasing: narrow dtypes whose span exceeds their
        # own positive range would wrap in ``col - lo``.
        if span < (1 << 15):
            rebased = col.astype(np.int64, copy=False) - lo
            return np.argsort(rebased.astype(np.int16), kind="stable")
        if span < (1 << 62) // n:
            comp = (col.astype(np.int64, copy=False) - lo) * np.int64(n) + np.arange(
                n, dtype=np.int64
            )
            return np.argsort(comp)
    return np.argsort(col, kind="stable")


def _hash_codes(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Dense int64 codes identifying each row's key tuple.

    Rows with equal key tuples get equal codes; the codes of a multi-key
    tuple are re-densified after every column so the mixed-radix combine
    cannot overflow int64 for any realistic row count.
    """
    combined = None
    for col in arrays:
        uniques, codes = np.unique(col, return_inverse=True)
        codes = codes.astype(np.int64)
        if combined is None:
            combined = codes
        else:
            combined = combined * np.int64(len(uniques) + 1) + codes
            combined = np.unique(combined, return_inverse=True)[1].astype(np.int64)
    if combined is None:
        raise ExecutionError("hash join needs at least one key")
    return combined


def directly_comparable(a: np.ndarray, b: np.ndarray) -> bool:
    """Join key columns whose values compare as they are: one dtype, or
    both numeric."""
    return a.dtype == b.dtype or (
        np.issubdtype(a.dtype, np.number) and np.issubdtype(b.dtype, np.number)
    )


def hash_join(
    left: Frame,
    right: Frame,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    kind: JoinKind = JoinKind.INNER,
) -> Frame:
    """Vectorized equi-join on equal-typed key columns.

    Column names must already be disjoint (use :func:`prefix_columns`).
    Outer variants emit unmatched rows with type-default padding (the
    engine's columns are dense; there is no NULL in the storage model).

    The build side is always the right input regardless of relative
    cardinality (RIGHT OUTER swaps the inputs to reduce to LEFT OUTER):
    key tuples of both sides are mapped to shared dense codes, the right
    side's codes are sorted once, and every left row finds its run of
    matches with one ``searchsorted`` probe.  Output rows are emitted in
    left-row-major order with right matches ascending, exactly like the
    scalar build/probe loop this replaces; swapping the build side would
    change that order, so we do not.
    """
    overlap = set(left.columns) & set(right.columns)
    if overlap:
        raise ExecutionError(f"join input column collision: {sorted(overlap)}")
    if kind is JoinKind.RIGHT_OUTER:
        return hash_join(right, left, right_keys, left_keys, JoinKind.LEFT_OUTER)

    left_arrays = [left.column(k) for k in left_keys]
    right_arrays = [right.column(k) for k in right_keys]
    if len(left_arrays) != len(right_arrays):
        raise ExecutionError("join key arity mismatch")
    n_left, n_right = left.num_rows, right.num_rows
    if not left_arrays:
        raise ExecutionError("hash join needs at least one key")

    la, ra = left_arrays[0], right_arrays[0]
    if len(left_arrays) == 1 and directly_comparable(la, ra):
        # Single comparable key: the values themselves are the codes — no
        # factorize pass over the concatenated columns needed.
        l_codes, r_codes = la, ra
    else:
        # Shared dense codes: factorize each key position over both sides
        # at once so equal tuples on either side land on the same code.
        codes = _hash_codes(
            [np.concatenate((a, b)) for a, b in zip(left_arrays, right_arrays)]
        )
        l_codes, r_codes = codes[:n_left], codes[n_left:]

    # "Build": sort the right side's codes; each distinct code owns one
    # contiguous run of right-row indices (ascending, as argsort is stable).
    r_order = _stable_order(r_codes)
    r_sorted = r_codes[r_order]
    if n_right:
        run_starts = np.concatenate(
            ([0], np.flatnonzero(r_sorted[1:] != r_sorted[:-1]) + 1)
        )
    else:
        run_starts = np.zeros(0, dtype=np.int64)
    uniq = r_sorted[run_starts]
    run_counts = np.diff(np.append(run_starts, n_right))

    # "Probe": locate every left code's run — through a direct-address
    # position table when the integer key range is small enough (one
    # gather instead of 100k binary searches), else one searchsorted pass.
    if len(uniq) == 0 or n_left == 0:
        pos = np.zeros(n_left, dtype=np.int64)
        matched = np.zeros(n_left, dtype=np.bool_)
    elif (
        np.issubdtype(uniq.dtype, np.integer)
        and uniq.dtype == l_codes.dtype
        and int(max(uniq[-1], l_codes.max()))
        - int(min(uniq[0], l_codes.min()))
        <= 4 * (n_left + n_right) + 1024
    ):
        lo = min(int(uniq[0]), int(l_codes.min()))
        span = max(int(uniq[-1]), int(l_codes.max())) - lo + 1
        table = np.full(span, -1, dtype=np.int64)
        table[uniq - lo] = np.arange(len(uniq), dtype=np.int64)
        pos = table[l_codes - lo]
        matched = pos >= 0
        pos[~matched] = 0
    else:
        pos = np.minimum(np.searchsorted(uniq, l_codes), len(uniq) - 1)
        matched = uniq[pos] == l_codes
    if len(uniq) == n_right:
        # Distinct build keys (a dimension table): a left row has one
        # match or none, so the matched rows are the output.
        li = np.flatnonzero(matched)
        ri = r_order[pos[li]]
        total = len(li)
    else:
        match_counts = np.where(matched, run_counts[pos] if len(uniq) else 0, 0)
        li = np.repeat(np.arange(n_left, dtype=np.int64), match_counts)
        total = int(match_counts.sum())
        # Offset of each output row within its left row's run of matches.
        first_out = np.repeat(np.cumsum(match_counts) - match_counts, match_counts)
        offsets = np.arange(total, dtype=np.int64) - first_out
        starts_per_row = run_starts[pos] if len(uniq) else np.zeros(n_left, dtype=np.int64)
        ri = r_order[np.repeat(starts_per_row, match_counts) + offsets]

    unmatched = (
        np.flatnonzero(~matched) if kind is JoinKind.LEFT_OUTER else np.empty(0, np.int64)
    )
    pad = len(unmatched)
    out: Dict[str, np.ndarray] = {}
    for name, col in left.columns.items():
        matched_part = col[li]
        if pad:
            matched_part = np.concatenate((matched_part, col[unmatched]))
        out[name] = matched_part
    for name, col in right.columns.items():
        matched_part = col[ri]
        if pad:
            matched_part = np.concatenate((matched_part, _default_pad(col, pad)))
        out[name] = matched_part
    return Frame(out, total + pad)


def cross_join(left: Frame, right: Frame) -> Frame:
    overlap = set(left.columns) & set(right.columns)
    if overlap:
        raise ExecutionError(f"join input column collision: {sorted(overlap)}")
    n, m = left.num_rows, right.num_rows
    out: Dict[str, np.ndarray] = {}
    for name, col in left.columns.items():
        out[name] = np.repeat(col, m)
    for name, col in right.columns.items():
        out[name] = np.tile(col, n)
    return Frame(out, n * m)


def join(
    left: Frame,
    right: Frame,
    kind: JoinKind,
    condition: Optional[Expr],
    left_binding: str,
    right_binding: str,
    resolve: Resolver,
) -> Frame:
    """General join: equi fast path, else filtered cross product."""
    if kind is JoinKind.CROSS:
        return cross_join(left, right)
    if condition is None:
        raise ExecutionError("non-CROSS join requires a condition")
    pairs = equi_join_keys(condition, left_binding, right_binding)
    if pairs is not None:
        try:
            left_keys = [resolve_in(left, p[0]) for p in pairs]
            right_keys = [resolve_in(right, p[1]) for p in pairs]
        except ExecutionError:
            pairs = None
        else:
            return hash_join(left, right, left_keys, right_keys, kind)
    # Fallback: cross product, then filter; outer pads unmatched rows.
    product = cross_join(left, right)
    mask = evaluate(condition, product, resolve).astype(np.bool_)
    matched = product.take(mask)
    if kind is JoinKind.INNER:
        return matched
    # LEFT/RIGHT outer via the fallback path
    probe, build = (left, right) if kind is JoinKind.LEFT_OUTER else (right, left)
    matched_mask = mask.reshape(left.num_rows, right.num_rows)
    if kind is JoinKind.LEFT_OUTER:
        missing = ~matched_mask.any(axis=1)
    else:
        missing = ~matched_mask.any(axis=0)
    missing_rows = probe.take(missing)
    pad = missing_rows.num_rows
    out = {}
    for name, col in matched.columns.items():
        if name in probe.columns:
            out[name] = np.concatenate((col, missing_rows.columns[name]))
        else:
            out[name] = np.concatenate((col, _default_pad(col, pad)))
    return Frame(out, matched.num_rows + pad)


def resolve_in(frame: Frame, col: Column) -> str:
    if col.table is not None and f"{col.table}.{col.name}" in frame.columns:
        return f"{col.table}.{col.name}"
    if col.name in frame.columns:
        return col.name
    for key in frame.columns:
        if key.endswith(f".{col.name}"):
            return key
    raise ExecutionError(f"column {col} not found in join input")


def _default_pad(col: np.ndarray, n: int) -> np.ndarray:
    if col.dtype == object:
        pad = np.empty(n, dtype=object)
        pad[:] = ""
        return pad
    return np.zeros(n, dtype=col.dtype)


def sort_frame(frame: Frame, keys: Sequence[Tuple[np.ndarray, bool]]) -> Frame:
    """Stable multi-key sort; keys are (values, ascending) pairs.

    One ``np.lexsort`` over per-key rank codes replaces the per-key
    argsort/reverse/tie-fix loop: each key column is factorized to dense
    ascending ranks (negated for descending keys, which object dtypes and
    NaN-bearing floats cannot express by negating the values themselves);
    lexsort's stability keeps rows with fully-equal keys in input order.
    """
    keys = list(keys)
    if not keys:
        return frame.take(np.arange(frame.num_rows))
    lex_keys = []
    for values, ascending in keys:
        codes = np.unique(values, return_inverse=True)[1].astype(np.int64)
        if not ascending:
            codes = -codes
            if np.issubdtype(values.dtype, np.floating):
                nan_idx = np.flatnonzero(np.isnan(values))
                if len(nan_idx):
                    # The scalar tie-fix loop saw each NaN as a distinct
                    # key, so a descending sort emits NaN rows in
                    # reversed input order; per-row descending codes
                    # below every real code reproduce that.
                    codes[nan_idx] = codes.min() - 1 - nan_idx
        lex_keys.append(codes)
    # np.lexsort treats its *last* key as primary.
    order = np.lexsort(lex_keys[::-1])
    return frame.take(order)


def limit_frame(frame: Frame, n: Optional[int]) -> Frame:
    if n is None:
        return frame
    return frame.head(n)
