"""Kernel benchmark suite (DESIGN.md S46): ``bench.py kernels``.

Times the vectorized hot-path kernels the leaves run at memory speed —
join build+probe, grouped aggregation, multi-key sort, bitvector
popcount/AND, the RLE codec, SmartIndex lookups, and the dictionary
chunk reader — and, for the join, aggregation and dictionary kernels,
the straightforward scalar loops they replaced, so every run reports the
speedup the vectorization buys.

Times are *library* time in reference seconds (``_harness.best_ref_s``);
the figure reproductions' simulated-clock numbers are untouched by
definition.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from benchmarks._harness import best_ref_s, kernel_regressions
from repro.columnar.block import ColumnChunk
from repro.columnar.encoding import DictionaryEncoding
from repro.columnar.schema import DataType
from repro.engine.aggregates import partial_aggregate
from repro.engine.operators import hash_join, sort_frame
from repro.index.bitmap import BitVector, rle_compress, rle_decompress
from repro.index.smartindex import SmartIndexManager
from repro.planner.cnf import AtomicPredicate
from repro.planner.expressions import Frame
from repro.sql.ast import BinaryOperator, JoinKind

#: Acceptance floor for the vectorized join/aggregate kernels.
MIN_SPEEDUP = 5.0
#: Index lookup cost must stay within this factor between cache sizes.
MAX_LOOKUP_SPREAD = 2.0

JOIN_ROWS = 100_000
AGG_ROWS = 100_000
#: scan_cold's grouped task (benchmarks/e2e): 40k rows over 16 int groups.
FEW_GROUPS_ROWS = 40_000
FEW_GROUPS = 16
SORT_ROWS = 100_000
BITS = 1_000_000
#: One scan_cold block (benchmarks/e2e): 80k rows over a 64-word dictionary.
DICT_ROWS = 80_000
#: Probes per timed lookup run: under a millisecond, so on a busy box
#: most runs fit in one time slice with the cache still warm.
LOOKUP_PROBES = 500

Results = Dict[str, Dict[str, float]]


# -- scalar reference implementations -------------------------------------
# Faithful copies of the row-at-a-time loops the vectorized kernels
# replaced (the seed's hash_join build/probe and partial_aggregate group
# loop), so the reported speedup measures exactly what this layer buys.


def _scalar_hash_join(left: Frame, right: Frame, lk: str, rk: str) -> Frame:
    left_arrays = [left.column(lk)]
    right_arrays = [right.column(rk)]
    table: Dict[Tuple, List[int]] = {}
    for i in range(right.num_rows):
        key = tuple(arr[i] for arr in right_arrays)
        table.setdefault(key, []).append(i)
    left_idx: List[int] = []
    right_idx: List[int] = []
    for i in range(left.num_rows):
        key = tuple(arr[i] for arr in left_arrays)
        matches = table.get(key)
        if matches:
            left_idx.extend([i] * len(matches))
            right_idx.extend(matches)
    li = np.asarray(left_idx, dtype=np.int64)
    ri = np.asarray(right_idx, dtype=np.int64)
    out: Dict[str, np.ndarray] = {}
    for name, col in left.columns.items():
        out[name] = col[li]
    for name, col in right.columns.items():
        out[name] = col[ri]
    return Frame(out, len(li))


def _to_python(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _group_rows(key_columns: List[np.ndarray]) -> np.ndarray:
    """The seed's factorize: each row's dense group id via ``np.unique``."""
    combined = None
    for col in key_columns:
        uniques, codes = np.unique(col, return_inverse=True)
        codes = codes.astype(np.int64)
        if combined is None:
            combined = codes
        else:
            combined = combined * np.int64(len(uniques)) + codes
    _, ids = np.unique(combined, return_inverse=True)
    return ids.astype(np.int64)


#: The seed's per-group reduction of one aggregate (a group has a row).
_REDUCERS = {
    "COUNT": len,
    "SUM": lambda values: values.sum(),
    "MIN": lambda values: values.min(),
    "MAX": lambda values: values.max(),
    "AVG": lambda values: float(values.sum()) / len(values),
}


def _scalar_partial_aggregate(
    key_arrays: List[np.ndarray], funcs: List[str], arrays: List[np.ndarray], n: int
) -> Dict[Tuple, list]:
    ids = _group_rows(key_arrays)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    )
    slices = np.append(boundaries, len(sorted_ids))
    groups: Dict[Tuple, list] = {}
    for gi in range(len(boundaries)):
        rows = order[slices[gi] : slices[gi + 1]]
        rep = rows[0]
        key = tuple(_to_python(col[rep]) for col in key_arrays)
        groups[key] = [_REDUCERS[f](arr[rows]) for f, arr in zip(funcs, arrays)]
    return groups


# -- kernel definitions ---------------------------------------------------


def _join_inputs() -> Tuple[Frame, Frame]:
    rng = np.random.default_rng(7)
    left = Frame.from_columns(
        {
            "l.k": rng.integers(0, JOIN_ROWS // 5, JOIN_ROWS),
            "l.v": rng.random(JOIN_ROWS),
        }
    )
    right = Frame.from_columns(
        {
            "r.k": rng.integers(0, JOIN_ROWS // 5, JOIN_ROWS // 5),
            "r.w": rng.random(JOIN_ROWS // 5),
        }
    )
    return left, right


def bench_join() -> Results:
    left, right = _join_inputs()
    ref, scalar = best_ref_s(
        lambda: hash_join(left, right, ["l.k"], ["r.k"], JoinKind.INNER),
        lambda: _scalar_hash_join(left, right, "l.k", "r.k"),
    )
    return {"join_build_probe_100k": {
        "ref_s": ref, "scalar_ref_s": scalar, "speedup": scalar / ref, "rows": JOIN_ROWS}}


def _agg_inputs() -> Tuple[np.ndarray, np.ndarray]:
    # High-cardinality GROUP BY (the paper's group-by-url shape): the
    # per-group work, not the initial factorize/sort, must dominate.
    rng = np.random.default_rng(11)
    return rng.integers(0, AGG_ROWS // 10, AGG_ROWS), rng.random(AGG_ROWS)


def bench_grouped_aggregate() -> Results:
    keys, values = _agg_inputs()
    funcs = ["COUNT", "SUM", "MIN", "MAX", "AVG"]
    ref, scalar = best_ref_s(
        lambda: partial_aggregate([keys], funcs, [values] * 5, AGG_ROWS),
        lambda: _scalar_partial_aggregate([keys], funcs, [values] * 5, AGG_ROWS),
    )
    return {"grouped_aggregate_100k": {
        "ref_s": ref, "scalar_ref_s": scalar, "speedup": scalar / ref, "rows": AGG_ROWS}}


def bench_grouped_aggregate_few_groups() -> Results:
    """``scan_cold``'s grouped task: few groups over many rows, where
    grouping, not the per-group work, is the cost."""
    rng = np.random.default_rng(31)
    keys = rng.integers(0, FEW_GROUPS, FEW_GROUPS_ROWS)
    values = rng.random(FEW_GROUPS_ROWS)
    funcs = ["COUNT", "SUM"]
    ref, scalar = best_ref_s(
        lambda: partial_aggregate([keys], funcs, [None, values], FEW_GROUPS_ROWS),
        lambda: _scalar_partial_aggregate([keys], funcs, [values, values], FEW_GROUPS_ROWS),
    )
    return {"grouped_aggregate_16g_40k": {
        "ref_s": ref, "scalar_ref_s": scalar, "speedup": scalar / ref, "rows": FEW_GROUPS_ROWS}}


def bench_sort() -> Results:
    rng = np.random.default_rng(13)
    frame = Frame.from_columns(
        {"a": rng.integers(0, 50, SORT_ROWS), "b": rng.random(SORT_ROWS)}
    )
    keys = [(frame.column("a"), True), (frame.column("b"), False)]
    (ref,) = best_ref_s(lambda: sort_frame(frame, keys))
    return {"sort_frame_100k": {"ref_s": ref, "rows": SORT_ROWS}}


def _bitvectors() -> Tuple[BitVector, BitVector]:
    rng = np.random.default_rng(17)
    return (
        BitVector.from_bool_array(rng.random(BITS) < 0.3),
        BitVector.from_bool_array(rng.random(BITS) < 0.5),
    )


def bench_popcount() -> Results:
    a, _ = _bitvectors()

    def run():
        for _ in range(100):
            a.count()

    (ref,) = best_ref_s(run)
    return {"bitvector_popcount_1m": {"ref_s": ref / 100, "bits": BITS}}


def bench_bit_and() -> Results:
    a, b = _bitvectors()

    def run():
        for _ in range(100):
            (a & b).count()

    (ref,) = best_ref_s(run)
    return {"bitvector_and_1m": {"ref_s": ref / 100, "bits": BITS}}


def bench_rle_roundtrip() -> Results:
    # Clustered bits: realistic selective-predicate bitmap with long runs.
    rng = np.random.default_rng(19)
    mask = np.zeros(BITS, dtype=bool)
    starts = rng.integers(0, BITS - 600, 200)
    for s in starts:
        mask[s : s + int(rng.integers(50, 600))] = True
    bv = BitVector.from_bool_array(mask)

    def run():
        payload, length = rle_compress(bv)
        rle_decompress(payload, length)

    (ref,) = best_ref_s(run)
    return {"rle_roundtrip_1m": {"ref_s": ref, "bits": BITS}}


def _filled_manager(entries: int) -> Tuple[SmartIndexManager, List[AtomicPredicate]]:
    mgr = SmartIndexManager(compress=False)
    rng = np.random.default_rng(23)
    atoms = [
        AtomicPredicate(f"c{i % 40}", BinaryOperator.GT, int(v))
        for i, v in enumerate(rng.integers(0, 1_000_000, entries))
    ]
    mask = np.ones(512, dtype=bool)
    for i, atom in enumerate(atoms):
        mgr.insert(f"b{i % 64}", atom, mask, now=float(i) * 1e-3)
    return mgr, atoms


def _lookup_probes(entries: int) -> Callable[[], None]:
    mgr, atoms = _filled_manager(entries)
    rng = np.random.default_rng(29)
    probe_ids = rng.integers(0, len(atoms), LOOKUP_PROBES)
    probes = [(f"b{i % 64}", atoms[i]) for i in probe_ids]
    now = float(entries) * 1e-3 + 1.0

    def run():
        for block_id, atom in probes:
            mgr.lookup_atom(block_id, atom, now)

    return run


def bench_index_lookup() -> Results:
    """One lookup against a 100-entry and a 10k-entry cache, timed in
    turns: their ratio is what the suite gates."""
    small, big = best_ref_s(_lookup_probes(100), _lookup_probes(10_000))
    return {
        "index_lookup_100": {"ref_s": small / LOOKUP_PROBES, "entries": 100},
        "index_lookup_10k": {"ref_s": big / LOOKUP_PROBES, "entries": 10_000},
    }


def _dict_string_chunk() -> ColumnChunk:
    rng = np.random.default_rng(41)
    words = np.array(
        [f"{w}{j:02d}" for w in ("alpha", "bravo", "delta", "gamma",
                                 "kappa", "omega", "sigma", "theta") for j in range(8)],
        dtype=object,
    )
    chunk = ColumnChunk.from_array("s", DataType.STRING, words[rng.integers(0, 64, DICT_ROWS)])
    assert chunk.encoding_tag == 2, "expected a dictionary-coded chunk"
    return chunk


def bench_dict_string_decode() -> Results:
    """Full materialization of a dictionary string chunk: one
    ``uniques[codes]`` gather against the per-row loop it replaced."""
    chunk = _dict_string_chunk()
    uniques, codes = DictionaryEncoding().decode_parts(chunk.payload, chunk.row_count)

    def scalar():
        out = np.empty(len(codes), dtype=object)
        for i, c in enumerate(codes):
            out[i] = uniques[c]
        return out

    assert scalar().tolist() == chunk.decode().tolist()
    ref, scalar_ref = best_ref_s(chunk.decode, scalar)
    return {"dict_string_decode_80k": {"ref_s": ref, "scalar_ref_s": scalar_ref,
                                       "speedup": scalar_ref / ref, "rows": DICT_ROWS}}


def bench_dict_contains_lut() -> Results:
    """CONTAINS answered on the 64 uniques and mapped through the codes,
    against evaluating it on every decoded row."""
    chunk = _dict_string_chunk()
    atom = AtomicPredicate("s", BinaryOperator.CONTAINS, "ha0")
    decoded = chunk.decode()

    def lut():
        return chunk.reader().map_bool(atom.evaluate)

    def scalar():
        return atom.evaluate(decoded)

    assert np.array_equal(lut(), scalar())
    ref, scalar_ref = best_ref_s(lut, scalar)
    return {"dict_contains_lut_80k": {"ref_s": ref, "scalar_ref_s": scalar_ref,
                                      "speedup": scalar_ref / ref, "rows": DICT_ROWS}}


#: Each returns ``{kernel_name: metrics}`` for the kernels it times together.
KERNELS: List[Callable[[], Results]] = [
    bench_join,
    bench_grouped_aggregate,
    bench_grouped_aggregate_few_groups,
    bench_sort,
    bench_popcount,
    bench_bit_and,
    bench_rle_roundtrip,
    bench_index_lookup,
    bench_dict_string_decode,
    bench_dict_contains_lut,
]


def run_suite() -> Results:
    """Run every kernel; returns ``{kernel_name: metrics}``."""
    results: Results = {}
    for bench in KERNELS:
        results.update(bench())
    return results


def acceptance_failures(results: Results) -> List[str]:
    """The suite's built-in invariants (independent of any baseline)."""
    problems = []
    for name in (
        "join_build_probe_100k", "grouped_aggregate_100k", "grouped_aggregate_16g_40k",
        "dict_string_decode_80k", "dict_contains_lut_80k",
    ):
        speedup = results[name]["speedup"]
        if speedup < MIN_SPEEDUP:
            problems.append(
                f"{name}: speedup {speedup:.1f}x < required {MIN_SPEEDUP:.0f}x"
            )
    small = results["index_lookup_100"]["ref_s"]
    big = results["index_lookup_10k"]["ref_s"]
    spread = big / small if small else float("inf")
    if spread > MAX_LOOKUP_SPREAD:
        problems.append(
            f"index lookup not flat: 10k-entry cache costs {spread:.2f}x "
            f"a 100-entry cache (limit {MAX_LOOKUP_SPREAD:.0f}x)"
        )
    return problems


regressions = kernel_regressions
