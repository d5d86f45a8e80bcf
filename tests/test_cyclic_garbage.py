"""Cyclic-garbage detector: a served query leaves nothing for the cyclic GC.

Every job, wave, task attempt and event the master creates must be freed
by reference count once it resolves.  A reference cycle among them (two
closures calling each other through their cells, an event resolving with
the object that holds it) keeps a task's attempts, results and frames
alive until a gen-1 collection, which on a drill-down workload costs more
than the collection itself saves.

Each scenario runs once to warm caches and lazily built state, then once
more with the collector off; a collection afterwards must find nothing.
"""

from __future__ import annotations

import gc
from collections import Counter

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.client.client import FeisuClient
from repro.gateway import GatewayConfig
from repro.workload.loggen import LogIngestor, generate_log_records


def _cluster(**config) -> FeisuCluster:
    cluster = FeisuCluster(FeisuConfig(racks_per_datacenter=2, nodes_per_rack=4, **config))
    rng = np.random.default_rng(3)
    n = 2000
    cluster.load_table(
        "T",
        Schema.of(a=DataType.INT64, g=DataType.INT64, x=DataType.FLOAT64),
        {"a": np.arange(n), "g": rng.integers(0, 8, n), "x": rng.random(n)},
        storage="storage-a",
        block_rows=250,
    )
    cluster.load_table(
        "D",
        Schema.of(g=DataType.INT64, name=DataType.STRING),
        {"g": np.arange(8), "name": np.array([f"n{i % 3}" for i in range(8)], dtype=object)},
        storage="storage-b",
    )
    cluster.create_user("u", admin=True)
    return cluster


def _client_work(sql: str):
    cluster = _cluster()
    client = FeisuClient(cluster, "u")
    return lambda: client.query(sql)


def scan():
    return _client_work("SELECT a, x FROM T WHERE a < 300 AND g = 2")


def grouped_aggregate():
    return _client_work("SELECT g, COUNT(*) AS n, SUM(x) AS sx FROM T WHERE a >= 100 GROUP BY g")


def broadcast_join():
    return _client_work(
        "SELECT D.name, COUNT(*) AS n, SUM(T.x) AS sx FROM T JOIN D ON T.g = D.g "
        "WHERE T.a < 1500 GROUP BY D.name"
    )


def gateway_session():
    cluster = _cluster(gateway=GatewayConfig())
    gateway = cluster.gateway

    def work():
        session = gateway.open_session("u", tenant="t0")
        session.submit("SELECT COUNT(*) FROM T WHERE a > 100")
        session.submit("SELECT g, MAX(x) FROM T GROUP BY g")
        gateway.run_until_drained()
        session.close()

    return work


def ingest_and_query():
    cluster = _cluster()
    client = FeisuClient(cluster, "u")
    passes = iter(range(100))

    def work():
        table = f"logs_{next(passes)}"
        ingestor = LogIngestor(cluster, table_name=table)
        for idx, node in enumerate(cluster.nodes[:2]):
            ingestor.ingest(node, generate_log_records(100, idx, 0, 7))
        client.query(f"SELECT action, COUNT(*) AS n FROM {table} GROUP BY action")

    return work


def backup_task():
    """The busiest replica holder crawls, so the watchdog launches a
    backup (§III-C) while the straggling attempt is still running.  Each
    query starts once the last one's stragglers have finished, so the
    slow leaf is idle and placed on again."""
    cluster = _cluster()
    client = FeisuClient(cluster, "u")
    holders = Counter()
    for ref in cluster.catalog.get("T").blocks:
        system, inner = cluster.router.resolve(ref.path)
        holders.update(system.locations(inner))
    cluster.leaf_at(holders.most_common(1)[0][0]).slow_down(50_000.0)
    queries = iter(range(100))

    def work():
        cluster.sim.run(until=cluster.sim.now + 100.0)
        job = client.query_job(f"SELECT MAX(x) FROM T WHERE a >= {next(queries)}")
        assert job.stats.backups_launched > 0

    return work


@pytest.mark.parametrize(
    "scenario",
    [scan, grouped_aggregate, broadcast_join, gateway_session, ingest_and_query, backup_task],
)
def test_served_work_leaves_no_cyclic_garbage(scenario):
    work = scenario()
    work()
    enabled, debug = gc.isenabled(), gc.get_debug()
    # Earlier tests' garbage first.  A suspended generator in a cycle runs
    # its finalizer in one collection and is freed in the next.
    for _ in range(5):
        if not gc.collect():
            break
    gc.disable()
    try:
        work()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert found == 0, f"cyclic garbage by type: {kinds.most_common(8)}"
