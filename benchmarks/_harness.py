"""Shared helpers for the figure reproductions and the ``bench.py`` suites."""

from __future__ import annotations

import gc
import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.ticks import TICKS_PER_REF_S, ref_tick
from repro import FeisuCluster, FeisuConfig, LeafConfig
from repro.workload.datasets import DatasetSpec, load_paper_datasets

#: A kernel is timed at least this many times, and until its runs add
#: up to ``MIN_TIMED_S``, in turns of at least ``TURN_S``; the cheapest
#: run is kept.
MIN_RUNS = 3
MIN_TIMED_S = 0.1
TURN_S = 0.02
#: A kernel regresses when its ref_s exceeds the baseline's by this factor.
REGRESSION_FACTOR = 2.0
#: A per-call figure under this (a lookup, a probe) is gated only by
#: the ratio its suite's acceptance checks: the ratio it exists for.
MIN_GATED_REF_S = 10e-6


def eval_cluster(
    leaf: Optional[LeafConfig] = None,
    datacenters: int = 1,
    racks_per_datacenter: int = 2,
    nodes_per_rack: int = 8,
    seed: int = 17,
    locality_aware: bool = True,
) -> FeisuCluster:
    """A cluster shaped like one slice of the paper's testbed."""
    # Per-call default: a def-time LeafConfig() would be one shared
    # mutable instance across every benchmark cluster.
    leaf = leaf if leaf is not None else LeafConfig()
    return FeisuCluster(
        FeisuConfig(
            datacenters=datacenters,
            racks_per_datacenter=racks_per_datacenter,
            nodes_per_rack=nodes_per_rack,
            leaf=leaf,
            seed=seed,
            locality_aware=locality_aware,
        )
    )


def load_t1(
    cluster: FeisuCluster,
    rows: int = 20_000,
    num_fields: int = 12,
    block_rows: int = 2048,
    scale: float = 1500.0,
):
    """Load a scaled T1 onto storage A; returns the table.

    ``scale`` sets how many production rows each materialized row models.
    The default keeps per-query modeled response times in the paper's
    interactive range (seconds) on a 16-node simulated cluster; the
    paper's full 30 B rows spread over 4,000 nodes — proportionally the
    same per-node load.  Table I's full-scale accounting lives in
    ``test_table1_datasets.py``.
    """
    spec = DatasetSpec("T1", rows, num_fields, "storage-a", int(rows * scale), seed=101)
    return load_paper_datasets(cluster, [spec], block_rows=block_rows)["T1"]


def run_stream(
    cluster: FeisuCluster,
    queries: Sequence[str],
    user: Optional[str] = None,
    inter_query_gap_s: float = 0.0,
) -> List[Dict[str, float]]:
    """Run queries sequentially; returns per-query stats dicts.

    Each dict carries the modeled stats plus ``wall_clock_s`` — the real
    host-side execution time of that query.  Figure tests read the
    modeled keys by name, so the extra key never reaches the committed
    result files; it is there so a harness run can report simulated and
    wall time side by side.
    """
    out = []
    for sql in queries:
        if inter_query_gap_s:
            cluster.sim.run(until=cluster.sim.now + inter_query_gap_s)
        t0 = time.perf_counter()
        result = cluster.query(sql, user=user)
        stats = dict(result.stats)
        stats["wall_clock_s"] = time.perf_counter() - t0
        out.append(stats)
    return out


def bucket_means(values: Sequence[float], bucket: int) -> List[float]:
    """Mean of consecutive buckets (the figures' x-axis points)."""
    means = []
    for start in range(0, len(values) - bucket + 1, bucket):
        chunk = values[start : start + bucket]
        means.append(sum(chunk) / len(chunk))
    return means


def logical_bytes(plans_bytes: Sequence[float]) -> float:
    return float(sum(plans_bytes))


# -- bench.py suites ---------------------------------------------------------


def _timed_run(fn: Callable[[], object]) -> Tuple[float, float]:
    """CPU seconds of one run of ``fn`` and of one reference tick after
    it.  As in ``timeit``, the garbage collector is off during the run."""
    gc.disable()
    try:
        t0 = time.process_time()
        fn()
        t1 = time.process_time()
    finally:
        gc.enable()
    ref_tick()
    return t1 - t0, time.process_time() - t1


def best_ref_s(*fns: Callable[[], object]) -> List[float]:
    """The cheapest run of each of ``fns`` in units of the cheapest
    reference tick (``benchmarks/e2e/ticks.py``), as reference seconds.

    Runs and ticks are timed in CPU seconds, so a neighbour that takes
    the core away for a while does not count; the tick divides out what
    is left, the speed of the core.  The functions take turns of at
    least ``TURN_S`` (a short one runs warm after the first run of its
    turn) until each has had ``MIN_RUNS`` runs and ``MIN_TIMED_S``, so
    the ratio of two of them, a speedup, is the ratio of their cheapest
    runs over one stretch of time.
    """
    best_op = [float("inf")] * len(fns)
    runs = [0] * len(fns)
    timed_s = [0.0] * len(fns)
    best_tick = float("inf")
    while any(n < MIN_RUNS or t < MIN_TIMED_S for n, t in zip(runs, timed_s)):
        for i, fn in enumerate(fns):
            turn_s = 0.0
            while turn_s < TURN_S:
                op_s, tick_s = _timed_run(fn)
                best_op[i], best_tick = min(best_op[i], op_s), min(best_tick, tick_s)
                runs[i], turn_s = runs[i] + 1, turn_s + op_s
            timed_s[i] += turn_s
    return [op / best_tick / TICKS_PER_REF_S for op in best_op]


def kernel_regressions(
    results: Dict[str, Dict[str, float]], baseline: Dict[str, Dict[str, float]]
) -> List[str]:
    """Kernels more than ``REGRESSION_FACTOR`` x slower than the baseline."""
    problems = []
    for name, base in baseline.items():
        current = results.get(name)
        if current is None:
            problems.append(f"{name}: kernel missing from current suite")
        elif MIN_GATED_REF_S <= base["ref_s"] < current["ref_s"] / REGRESSION_FACTOR:
            problems.append(
                f"{name}: {current['ref_s']:.6f} ref_s vs baseline "
                f"{base['ref_s']:.6f} (>{REGRESSION_FACTOR:.0f}x regression)"
            )
    return problems


def rows_match(rows_a: List, rows_b: List) -> bool:
    """Row lists equal, floats up to addition-order ulps (NaN matches NaN)."""
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        if len(row_a) != len(row_b):
            return False
        for a, b in zip(row_a, row_b):
            if isinstance(a, float) and isinstance(b, float):
                if math.isnan(a) and math.isnan(b):
                    continue
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True
