#!/usr/bin/env python
"""Scale probe: what one query costs the master at the paper's cluster size.

Builds 4 datacenters x 32 racks x 32 nodes (4 096 leaves), loads a
256-block table, and runs five cold scans of ~200 tasks each through the
public client.  Prints build / load / per-query wall seconds and how many
``ClusterManager.is_alive`` calls the scheduler makes per placed task
(``JobScheduler.place_wave`` reads each leaf's liveness once per wave),
then checks every answer against the same queries on an 8-leaf cluster.

    python tools/scale_probe.py                       # the paper-size shape
    python tools/scale_probe.py --racks 2 --nodes 4   # any other shape

The numbers are printed, not gated: wall seconds depend on the box.  What
they are for is the shape — per-query cost that does not grow with the
leaf count (ROADMAP item 3).
"""

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro import DataType, FeisuCluster, FeisuConfig, LeafConfig, Schema  # noqa: E402
from repro.client.client import FeisuClient  # noqa: E402
from repro.cluster.membership import ClusterManager  # noqa: E402
from repro.cluster.scheduler import JobScheduler  # noqa: E402

BLOCKS, BLOCK_ROWS, QUERIES = 256, 256, 5


def _columns(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    rows = BLOCKS * BLOCK_ROWS
    return {
        # Sorted, so a range predicate prunes whole blocks by catalog
        # statistics and a query keeps ~200 of the 256 as tasks.
        "k": np.arange(rows, dtype=np.int64),
        "g": rng.integers(0, 8, rows),
        "x": rng.random(rows) * 100.0,
    }


def _queries() -> list:
    return [
        f"SELECT g, COUNT(*) AS n, SUM(x) AS sx FROM T WHERE k >= {(50 + i) * BLOCK_ROWS} "
        f"AND x > {10 + i} GROUP BY g ORDER BY g"
        for i in range(QUERIES)
    ]


def probe(datacenters: int, racks: int, nodes: int, seed: int) -> dict:
    """Build, load and query one cluster; returns timings, counts, answers."""
    t0 = time.perf_counter()
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=datacenters,
            racks_per_datacenter=racks,
            nodes_per_rack=nodes,
            leaf=LeafConfig(enable_smartindex=False),
        )
    )
    t1 = time.perf_counter()
    schema = Schema.of(k=DataType.INT64, g=DataType.INT64, x=DataType.FLOAT64)
    cluster.load_table("T", schema, _columns(seed), block_rows=BLOCK_ROWS)
    cluster.create_user("probe", admin=True)
    client = FeisuClient(cluster, "probe")
    t2 = time.perf_counter()

    counts = {"place": 0, "is_alive": 0}
    place_wave, is_alive = JobScheduler.place_wave, ClusterManager.is_alive

    def counted_place_wave(self, tasks, *args, **kwargs):
        counts["place"] += len(tasks)
        return place_wave(self, tasks, *args, **kwargs)

    def counted_is_alive(self, worker_id):
        counts["is_alive"] += 1
        return is_alive(self, worker_id)

    JobScheduler.place_wave, ClusterManager.is_alive = counted_place_wave, counted_is_alive
    try:
        walls, tasks, answers = [], [], []
        for sql in _queries():
            q0 = time.perf_counter()
            job = client.query_job(sql)
            walls.append(time.perf_counter() - q0)
            tasks.append(job.stats.tasks_total)
            answers.append(job.result.rows())
    finally:
        JobScheduler.place_wave, ClusterManager.is_alive = place_wave, is_alive
    return {
        "leaves": len(cluster.leaves),
        "build_s": t1 - t0,
        "load_s": t2 - t1,
        "query_s": walls,
        "tasks": tasks,
        "is_alive_per_place": counts["is_alive"] / max(1, counts["place"]),
        "answers": answers,
    }


def _same(a: list, b: list) -> bool:
    """Row-equal up to float addition order (partials merge in a
    different order on a different tree)."""
    return len(a) == len(b) and all(
        len(ra) == len(rb)
        and all(
            np.isclose(va, vb, rtol=1e-9) if isinstance(va, float) else va == vb
            for va, vb in zip(ra, rb)
        )
        for ra, rb in zip(a, b)
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--datacenters", type=int, default=4)
    ap.add_argument("--racks", type=int, default=32, help="racks per datacenter")
    ap.add_argument("--nodes", type=int, default=32, help="nodes per rack")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    big = probe(args.datacenters, args.racks, args.nodes, args.seed)
    small = probe(1, 2, 4, args.seed)
    for label, r in (("probe", big), ("reference", small)):
        print(f"-- {label}: {r['leaves']} leaves")
        print(f"build_s              {r['build_s']:.3f}")
        print(f"load_s               {r['load_s']:.3f}")
        for wall, n in zip(r["query_s"], r["tasks"]):
            print(f"query_s              {wall:.4f}   ({n} tasks)")
        print(f"is_alive_per_place   {r['is_alive_per_place']:.2f}")
    agree = all(_same(a, b) for a, b in zip(big["answers"], small["answers"]))
    print(f"answers equal to the {small['leaves']}-leaf cluster's: {agree}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
