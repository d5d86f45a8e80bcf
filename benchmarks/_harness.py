"""Shared helpers for the figure-reproduction benchmarks."""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import FeisuCluster, FeisuConfig, LeafConfig
from repro.workload.datasets import DatasetSpec, load_paper_datasets


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
