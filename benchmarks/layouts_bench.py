"""Trojan-replica ablation bench (S54).

Twin clusters — byte-identical replicas vs. ``enable_layouts`` Trojan
replicas — run the same predicate/join-heavy aggregate workload.  The
layout twin's warmup pass feeds the predicate/join census; two forced
daemon cycles then rewrite per-replica variants (sorted projection on the
dominant predicate column, join-co-partitioned copy with an attached
B+ tree), and the measured pass routes each task to the best-fitting
copy.  The gate demands:

* every query returns identical rows on both twins (float aggregates up
  to addition-order ulps — variant row order permutes summation);
* at least ``MIN_MEAN_IMPROVEMENT`` mean simulated-latency win;
* the measured pass actually served variant reads (the routing landed);
* the scheduler's per-(block, columns) byte-size memo (satellite) shows
  a hit-dominated profile plus a micro-measured speedup over recomputing
  ``BlockRef.bytes_for`` per candidate.

SmartIndex is disabled on BOTH twins: variant reads must bypass
whole-block bitvectors anyway, so leaving it on for the base twin only
would compare different machines.
"""

from __future__ import annotations

import time
from typing import Dict, List

from benchmarks._harness import rows_match, skewed_join_twin
from repro import FeisuCluster
from repro.cluster.node import LeafConfig

#: Acceptance bar: layout-aware routing must cut mean simulated latency
#: by >= 25% on the predicate/join-heavy ablation.
MIN_MEAN_IMPROVEMENT = 0.25
#: Byte-size memo micro-bench floor (dict hit vs. rebuilding the
#: column-size dict per call); real ratios are an order of magnitude up.
MIN_MEMO_SPEEDUP = 1.5
#: Distinct queries in the ablation workload.
NUM_QUERIES = 8

#: Predicate/join-heavy, order-deterministic (aggregates + ORDER BY on
#: the group key): variant row order must not change any answer.
QUERIES: List[str] = [
    "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM T WHERE w < 200 GROUP BY k ORDER BY k",
    "SELECT k, SUM(v) AS s FROM T WHERE w >= 900 GROUP BY k ORDER BY k",
    "SELECT k, COUNT(*) AS n FROM T WHERE w < 400 GROUP BY k ORDER BY k",
    "SELECT k, AVG(v) AS a FROM T WHERE w >= 500 AND w < 600 GROUP BY k ORDER BY k",
    "SELECT D.label, SUM(T.v) AS s FROM T JOIN D ON T.k = D.k "
    "WHERE T.w >= 700 GROUP BY D.label ORDER BY D.label",
    "SELECT D.label, COUNT(*) AS n FROM T JOIN D ON T.k = D.k "
    "WHERE T.w < 300 GROUP BY D.label ORDER BY D.label",
    "SELECT D.label, SUM(T.v) AS s FROM T JOIN D ON T.k = D.k "
    "WHERE T.w < 150 GROUP BY D.label ORDER BY D.label",
    "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM T WHERE w < 800 GROUP BY k ORDER BY k",
]


def _memo_micro_speedup(cluster: FeisuCluster, repeats: int = 2000) -> float:
    """Wall-clock ratio of recomputing ``BlockRef.bytes_for`` per call vs.
    the scheduler's memoized lookup, on this cluster's real blocks."""
    scheduler = cluster.scheduler
    blocks = cluster.catalog.get("T").blocks
    columns = ("k", "v", "w")

    class _FakeTask:
        __slots__ = ("block", "columns")

        def __init__(self, block):
            self.block = block
            self.columns = columns

    tasks = [_FakeTask(b) for b in blocks]
    start = time.perf_counter()
    for _ in range(repeats):
        for t in tasks:
            t.block.bytes_for(t.columns)
    direct_s = time.perf_counter() - start
    for t in tasks:  # populate the memo outside the timed region
        scheduler._task_bytes(t)
    start = time.perf_counter()
    for _ in range(repeats):
        for t in tasks:
            scheduler._task_bytes(t)
    memo_s = time.perf_counter() - start
    return direct_s / memo_s if memo_s > 0 else float("inf")


def run_suite() -> Dict[str, Dict[str, float]]:
    base = skewed_join_twin(LeafConfig(enable_smartindex=False))
    trojan = skewed_join_twin(LeafConfig(enable_smartindex=False, enable_layouts=True))

    # Warmup pass on both twins (equalizes device/slot state) — on the
    # layout twin it also feeds the census and heat tracker.
    for cluster in (base, trojan):
        for sql in QUERIES:
            cluster.query(sql)
    # Two forced daemon cycles: cycle one rewrites the first replica of
    # each hot block, cycle two the second (one per block per cycle).
    for _ in range(2):
        trojan.sim.run_until_complete(
            trojan.sim.process(trojan.layouts.run_once())
        )
    rewrites = trojan.layouts.stats.rewrites
    variant_reads_before = trojan.layouts.stats.variant_reads

    base_latencies: List[float] = []
    trojan_latencies: List[float] = []
    improvements: List[float] = []
    rows_identical = True
    for sql in QUERIES:
        rb = base.query(sql)
        rt = trojan.query(sql)
        rows_identical = rows_identical and rows_match(rb.rows(), rt.rows())
        b_lat = rb.stats["response_time_s"]
        t_lat = rt.stats["response_time_s"]
        base_latencies.append(b_lat)
        trojan_latencies.append(t_lat)
        improvements.append(1.0 - t_lat / b_lat)
    variant_reads = trojan.layouts.stats.variant_reads - variant_reads_before

    hits = trojan.scheduler.task_bytes_hits + base.scheduler.task_bytes_hits
    misses = trojan.scheduler.task_bytes_misses + base.scheduler.task_bytes_misses
    memo_speedup = _memo_micro_speedup(base)

    n = len(QUERIES)
    return {
        "layout_ablation": {
            "queries": float(n),
            "base_mean_latency_s": sum(base_latencies) / n,
            "layout_mean_latency_s": sum(trojan_latencies) / n,
            "mean_improvement": sum(improvements) / n,
            "min_improvement": min(improvements),
            "rows_identical": 1.0 if rows_identical else 0.0,
            "replica_rewrites": float(rewrites),
            "variant_reads": float(variant_reads),
        },
        "placement_memo": {
            "bytes_cache_hits": float(hits),
            "bytes_cache_misses": float(misses),
            "memo_micro_speedup": memo_speedup,
        },
    }


def acceptance_failures(results: Dict[str, Dict[str, float]]) -> List[str]:
    """The S54 acceptance bar, independent of any baseline."""
    r = results["layout_ablation"]
    m = results["placement_memo"]
    problems: List[str] = []
    if r["rows_identical"] != 1.0:
        problems.append("layout twin rows diverge from the base twin's rows")
    if r["replica_rewrites"] < 1.0:
        problems.append("layout daemon rewrote no replica")
    if r["variant_reads"] < 1.0:
        problems.append("measured pass served no variant read — routing never landed")
    if r["mean_improvement"] < MIN_MEAN_IMPROVEMENT:
        problems.append(
            f"mean latency improvement {r['mean_improvement']:.1%} "
            f"< required {MIN_MEAN_IMPROVEMENT:.0%}"
        )
    if m["bytes_cache_hits"] <= m["bytes_cache_misses"]:
        problems.append(
            f"byte-size memo not hit-dominated: {m['bytes_cache_hits']:.0f} hits "
            f"vs {m['bytes_cache_misses']:.0f} misses"
        )
    if m["memo_micro_speedup"] < MIN_MEMO_SPEEDUP:
        problems.append(
            f"byte-size memo micro speedup {m['memo_micro_speedup']:.2f}x "
            f"< required {MIN_MEMO_SPEEDUP:.1f}x"
        )
    return problems


def regressions(
    results: Dict[str, Dict[str, float]], baseline: Dict[str, Dict[str, float]]
) -> List[str]:
    """Drift vs. the committed baseline.  Simulated-clock metrics are
    deterministic; the wall-clock memo micro-bench is machine-dependent
    and deliberately NOT compared here (the acceptance floor covers it)."""
    r = results["layout_ablation"]
    b = baseline["layout_ablation"]
    problems: List[str] = []
    if r["mean_improvement"] < b["mean_improvement"] - 0.02:
        problems.append(
            f"mean improvement regressed: {r['mean_improvement']:.1%} vs "
            f"baseline {b['mean_improvement']:.1%}"
        )
    if r["layout_mean_latency_s"] > b["layout_mean_latency_s"] * 1.05:
        problems.append(
            f"layout mean latency regressed: {r['layout_mean_latency_s']:.4f}s "
            f"vs baseline {b['layout_mean_latency_s']:.4f}s"
        )
    if r["variant_reads"] < b["variant_reads"]:
        problems.append(
            f"variant reads dropped: {r['variant_reads']:.0f} vs "
            f"baseline {b['variant_reads']:.0f}"
        )
    return problems
