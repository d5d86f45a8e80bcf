"""Elastic rebalancing ablation bench (S55).

Twin clusters with the *same* node count run the same hot-domain
aggregate workload over a table deliberately loaded at replication 1
from a single writer node — every block piles onto one server, the
worst-case hot domain a static cluster can do nothing about.  The
elastic twin's warmup feeds the heat tracker; forced rebalancer cycles
then spread the hot blocks' replicas onto idle nodes and migrate bytes
off the overloaded server; the measured pass reruns the workload on both
twins.  The gate demands:

* identical rows on both twins for every query (placement moves bytes,
  never answers);
* at least ``MIN_MEAN_IMPROVEMENT`` mean simulated-latency win for the
  rebalanced twin;
* the rebalancer actually acted (>= 1 replica spread);
* the membership exercise — one node joined, one replica-holding node
  decommissioned — ends with zero blocks stranded on the departed node
  and the workload still answering identically.

SmartIndex is disabled on BOTH twins so the comparison is pure
placement; tiering and layouts stay off for the same reason.
"""

from __future__ import annotations

from typing import Dict, List

from benchmarks._harness import rows_match
from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.cluster.elastic import ElasticConfig
from repro.cluster.node import LeafConfig
from repro.sim.netmodel import NodeAddress

#: Acceptance bar: rebalancing must cut mean simulated latency by >= 25%
#: on the hot-domain ablation.
MIN_MEAN_IMPROVEMENT = 0.25
#: Distinct queries in the hot-domain workload.
NUM_QUERIES = 6

_ROWS = 24_000
_BLOCK_ROWS = 3_000
_SCALE_FACTOR = 1_500
#: Every block of T lands on this node (replication 1, single writer).
_HOT_NODE = NodeAddress(0, 0, 1)

FACT_SCHEMA = Schema.of(k=DataType.INT64, v=DataType.FLOAT64, w=DataType.INT64)

#: Hot-domain, order-deterministic workload: every query scans T, so all
#: the heat lands on one storage system's namespace.
QUERIES: List[str] = [
    "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM T GROUP BY k ORDER BY k",
    "SELECT k, SUM(v) AS s FROM T WHERE w < 500 GROUP BY k ORDER BY k",
    "SELECT COUNT(*) AS n FROM T WHERE w >= 250 AND w < 750",
    "SELECT k, AVG(v) AS a FROM T WHERE w >= 100 GROUP BY k ORDER BY k",
    "SELECT k, COUNT(*) AS n FROM T WHERE w < 900 GROUP BY k ORDER BY k",
    "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM T GROUP BY k ORDER BY k",
]

#: Forced rebalancer cycles between warmup and the measured pass.
_CYCLES = 3


def elastic_config() -> ElasticConfig:
    return ElasticConfig(
        rebalance_period_s=1e9,  # cycles are forced, not timed
        spread_heat_threshold=1.0,
        spread_max_extra=3,
        max_spreads_per_cycle=16,
        max_migrations_per_cycle=4,
    )


def _dataset():
    import numpy as np

    rng = np.random.default_rng(17)
    return {
        "k": rng.integers(0, 16, _ROWS),
        "v": rng.random(_ROWS),
        "w": rng.integers(0, 1000, _ROWS),
    }


def _twin(elastic: bool) -> FeisuCluster:
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=4,
            leaf=LeafConfig(enable_smartindex=False),
            enable_elastic=elastic,
            elastic=elastic_config() if elastic else None,
        )
    )
    # The hot-domain setup: one copy of every block, all on one node.
    cluster.storage_a.replication = 1
    cluster.load_table(
        "T",
        FACT_SCHEMA,
        _dataset(),
        storage="storage-a",
        block_rows=_BLOCK_ROWS,
        scale_factor=_SCALE_FACTOR,
        node=_HOT_NODE,
    )
    return cluster


def run_suite() -> Dict[str, Dict[str, float]]:
    static = _twin(False)
    elastic = _twin(True)

    # Warmup on both twins (equalizes device/slot state); on the elastic
    # twin it also charges the heat tracker with the hot domain.
    for cluster in (static, elastic):
        for sql in QUERIES:
            cluster.query(sql)
    reb = elastic.elastic.rebalancer
    for _ in range(_CYCLES):
        elastic.sim.run_until_complete(elastic.sim.process(reb.run_once()))

    static_latencies: List[float] = []
    elastic_latencies: List[float] = []
    improvements: List[float] = []
    rows_identical = True
    for sql in QUERIES:
        rs = static.query(sql)
        re = elastic.query(sql)
        rows_identical = rows_identical and rows_match(rs.rows(), re.rows())
        s_lat = rs.stats["response_time_s"]
        e_lat = re.stats["response_time_s"]
        static_latencies.append(s_lat)
        elastic_latencies.append(e_lat)
        improvements.append(1.0 - e_lat / s_lat)

    # Membership exercise on the elastic twin: join a fresh node, then
    # decommission the original hot node out from under its replicas.
    mgr = elastic.elastic
    joined = elastic.join_node(datacenter=0, rack=0)
    hot_leaf = elastic.leaf_at(_HOT_NODE)
    held_before = len(elastic.storage_a.held_paths(_HOT_NODE))
    done = elastic.decommission(hot_leaf.worker_id)
    elastic.sim.run_until_complete(done, limit=elastic.sim.now + 3600.0)
    stranded = sum(
        1
        for system in elastic.router.systems()
        for path in system.list_paths()
        for node in system.locations(path)
        if node in mgr.departed
    )
    post_identical = True
    for sql in QUERIES:
        rs = static.query(sql)
        re = elastic.query(sql)
        post_identical = post_identical and rows_match(rs.rows(), re.rows())
    assert joined.alive  # the newcomer serves through the whole exercise

    n = len(QUERIES)
    return {
        "elastic_ablation": {
            "queries": float(n),
            "static_mean_latency_s": sum(static_latencies) / n,
            "elastic_mean_latency_s": sum(elastic_latencies) / n,
            "mean_improvement": sum(improvements) / n,
            "min_improvement": min(improvements),
            "rows_identical": 1.0 if rows_identical else 0.0,
            "replica_spreads": float(reb.stats.spreads),
            "migrations": float(reb.stats.migrations),
            "moved_bytes": float(reb.stats.moved_bytes),
        },
        "membership": {
            "joins": float(mgr.joins),
            "decommissions": float(mgr.decommissions),
            "evacuated_replicas_held_before": float(held_before),
            "evacuations": float(reb.stats.evacuations),
            "stranded_on_departed": float(stranded),
            "post_change_rows_identical": 1.0 if post_identical else 0.0,
        },
    }


def acceptance_failures(results: Dict[str, Dict[str, float]]) -> List[str]:
    """The S55 acceptance bar, independent of any baseline."""
    r = results["elastic_ablation"]
    m = results["membership"]
    problems: List[str] = []
    if r["rows_identical"] != 1.0:
        problems.append("elastic twin rows diverge from the static twin's rows")
    if r["replica_spreads"] < 1.0:
        problems.append("rebalancer spread no hot replica — placement never widened")
    if r["mean_improvement"] < MIN_MEAN_IMPROVEMENT:
        problems.append(
            f"mean latency improvement {r['mean_improvement']:.1%} "
            f"< required {MIN_MEAN_IMPROVEMENT:.0%}"
        )
    if m["joins"] < 1.0 or m["decommissions"] < 1.0:
        problems.append("membership exercise did not both join and decommission")
    if m["stranded_on_departed"] != 0.0:
        problems.append(
            f"{m['stranded_on_departed']:.0f} replica(s) stranded on a departed node"
        )
    if m["post_change_rows_identical"] != 1.0:
        problems.append("rows diverged after the join/decommission exercise")
    return problems


def regressions(
    results: Dict[str, Dict[str, float]], baseline: Dict[str, Dict[str, float]]
) -> List[str]:
    """Drift vs. the committed baseline (simulated-clock metrics only —
    everything here is deterministic)."""
    r = results["elastic_ablation"]
    b = baseline["elastic_ablation"]
    problems: List[str] = []
    if r["mean_improvement"] < b["mean_improvement"] - 0.02:
        problems.append(
            f"mean improvement regressed: {r['mean_improvement']:.1%} vs "
            f"baseline {b['mean_improvement']:.1%}"
        )
    if r["elastic_mean_latency_s"] > b["elastic_mean_latency_s"] * 1.05:
        problems.append(
            f"elastic mean latency regressed: {r['elastic_mean_latency_s']:.4f}s "
            f"vs baseline {b['elastic_mean_latency_s']:.4f}s"
        )
    if r["replica_spreads"] < b["replica_spreads"]:
        problems.append(
            f"replica spreads dropped: {r['replica_spreads']:.0f} vs "
            f"baseline {b['replica_spreads']:.0f}"
        )
    return problems
