"""Misestimate-ablation bench for the adaptive re-optimizer (S53).

Twin clusters — frozen planner vs. ``AdaptiveConfig`` pilot-slice
re-optimization — run the same skewed-join workload whose CONTAINS
predicate the static planner misestimates by ~6x.  The gate demands:

* every query returns identical rows on both twins (float aggregates up
  to addition-order ulps);
* every adaptive run actually re-planned (the trigger fired);
* adaptive modeled IO never exceeds frozen beyond per-slice rounding;
* mean simulated latency improves by at least ``MIN_MEAN_IMPROVEMENT``.

SmartIndex is disabled on BOTH twins: pilot slices can never answer from
a whole-block index, so leaving it on for the frozen twin only would
compare different machines (and repeats would be index-covered there).
"""

from __future__ import annotations

from typing import Dict, List

from benchmarks._harness import rows_match, skewed_join_twin
from repro.cluster.node import LeafConfig
from repro.planner.adaptive import AdaptiveConfig
from repro.workload.generator import skewed_join_queries

#: Acceptance bar: adaptive must cut mean simulated latency by >= 25%.
MIN_MEAN_IMPROVEMENT = 0.25
#: Modeled-IO conservation: slices charge proportionally; per-slice
#: integer rounding is the only slack allowed.
MAX_IO_RATIO = 1.001
#: Distinct misestimate queries in the workload.
NUM_QUERIES = 8


def run_suite() -> Dict[str, Dict[str, float]]:
    frozen = skewed_join_twin(LeafConfig(enable_smartindex=False))
    adaptive = skewed_join_twin(LeafConfig(enable_smartindex=False), adaptive=AdaptiveConfig())
    queries = skewed_join_queries(NUM_QUERIES, seed=23)

    frozen_latencies: List[float] = []
    adaptive_latencies: List[float] = []
    improvements: List[float] = []
    replanned = 0
    rows_identical = True
    io_ratio_max = 0.0
    for sql in queries:
        f = frozen.query(sql)
        a = adaptive.query(sql)
        rows_identical = rows_identical and rows_match(f.rows(), a.rows())
        f_lat = f.stats["response_time_s"]
        a_lat = a.stats["response_time_s"]
        frozen_latencies.append(f_lat)
        adaptive_latencies.append(a_lat)
        improvements.append(1.0 - a_lat / f_lat)
        if a.stats.get("adaptive_replans", 0) >= 1:
            replanned += 1
        io_ratio_max = max(
            io_ratio_max, a.stats["io_bytes_modeled"] / f.stats["io_bytes_modeled"]
        )

    n = len(queries)
    return {
        "misestimate_ablation": {
            "queries": float(n),
            "frozen_mean_latency_s": sum(frozen_latencies) / n,
            "adaptive_mean_latency_s": sum(adaptive_latencies) / n,
            "mean_improvement": sum(improvements) / n,
            "min_improvement": min(improvements),
            "replanned_queries": float(replanned),
            "rows_identical": 1.0 if rows_identical else 0.0,
            "io_ratio_max": io_ratio_max,
        }
    }


def acceptance_failures(results: Dict[str, Dict[str, float]]) -> List[str]:
    """The S53 acceptance bar, independent of any baseline."""
    r = results["misestimate_ablation"]
    problems: List[str] = []
    if r["rows_identical"] != 1.0:
        problems.append("adaptive rows diverge from the frozen plan's rows")
    if r["replanned_queries"] < r["queries"]:
        problems.append(
            f"only {r['replanned_queries']:.0f}/{r['queries']:.0f} queries "
            "re-planned; the misestimate trigger should fire on all"
        )
    if r["io_ratio_max"] > MAX_IO_RATIO:
        problems.append(
            f"adaptive modeled IO {r['io_ratio_max']:.4f}x frozen "
            f"(allowed {MAX_IO_RATIO:.4f}x)"
        )
    if r["mean_improvement"] < MIN_MEAN_IMPROVEMENT:
        problems.append(
            f"mean latency improvement {r['mean_improvement']:.1%} "
            f"< required {MIN_MEAN_IMPROVEMENT:.0%}"
        )
    return problems


def regressions(
    results: Dict[str, Dict[str, float]], baseline: Dict[str, Dict[str, float]]
) -> List[str]:
    """Drift vs. the committed baseline (simulated clock: deterministic,
    so only a real behaviour change moves these)."""
    r = results["misestimate_ablation"]
    b = baseline["misestimate_ablation"]
    problems: List[str] = []
    if r["mean_improvement"] < b["mean_improvement"] - 0.02:
        problems.append(
            f"mean improvement regressed: {r['mean_improvement']:.1%} vs "
            f"baseline {b['mean_improvement']:.1%}"
        )
    if r["adaptive_mean_latency_s"] > b["adaptive_mean_latency_s"] * 1.05:
        problems.append(
            f"adaptive mean latency regressed: {r['adaptive_mean_latency_s']:.4f}s "
            f"vs baseline {b['adaptive_mean_latency_s']:.4f}s"
        )
    return problems
