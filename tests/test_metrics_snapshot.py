"""One reader for the cluster's counters (S72).

``cluster.metrics()``, the gateway's snapshot totals and the
multi-session report are read off declared dataclass fields by
``counters`` / ``summed``.  ``golden/metrics_snapshot.json`` was recorded
from the hand-copied snapshot classes those helpers replaced; the flat
dicts must reproduce its keys, order, value types and values exactly.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro import DataType, FeisuCluster, FeisuConfig, JobOptions, LeafConfig, Schema
from repro.cluster.elastic import ElasticConfig, RebalanceStats
from repro.cluster.metrics import counters, summed
from repro.errors import GatewayOverloadedError
from repro.gateway import GatewayConfig, TenantPolicy, run_sessions
from repro.index.smartindex import IndexStats
from repro.workload.generator import MultiTenantConfig, multi_tenant_sessions

GOLDEN = Path(__file__).parent / "golden" / "metrics_snapshot.json"

#: Per-tenant report fields recorded alongside ``report.as_dict()``.
TENANT_COUNTS = ("sessions", "admitted", "rejected", "completed", "failed", "killed", "timed_out")


def _cluster(gateway=None, leaf=None, **kw) -> FeisuCluster:
    """8 leaves, table T (5 blocks) on storage-a, users alice and bob."""
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=4,
            gateway=gateway,
            leaf=leaf if leaf is not None else LeafConfig(),
            **kw,
        )
    )
    n = 4000
    rng = np.random.default_rng(3)
    cluster.load_table(
        "T",
        Schema.of(a=DataType.INT64, b=DataType.FLOAT64, s=DataType.STRING),
        {
            "a": rng.integers(0, 50, n),
            "b": rng.random(n),
            "s": np.array([f"row{i % 9}" for i in range(n)], dtype=object),
        },
        storage="storage-a",
        block_rows=800,
        scale_factor=1000.0,
    )
    for user in ("alice", "bob"):
        cluster.create_user(user, domains=["*"])
        cluster.acl.grant(user, "T")
    return cluster


def plain_cluster() -> FeisuCluster:
    """Index hits and misses, a spilled job, heartbeats, one dead leaf."""
    cluster = _cluster()
    for sql in (
        "SELECT COUNT(*) FROM T WHERE a > 10",
        "SELECT COUNT(*) FROM T WHERE a > 10",
        "SELECT s, SUM(b) FROM T WHERE a <= 10 GROUP BY s",
        "SELECT COUNT(*) FROM T WHERE s = 'row3'",
    ):
        cluster.query(sql)
    cluster.query_job(
        "SELECT a, b FROM T WHERE a < 5", options=JobOptions(spill_threshold_bytes=10_000.0)
    )
    cluster.sim.run(until=cluster.sim.now + 20.0)
    cluster.leaves[0].crash()
    return cluster


def gateway_snapshots(read):
    """``read(cluster)`` mid-run and drained on a one-slot gateway whose
    tenants see a rejection, a kill and a timeout; also the mid-run
    per-tenant queue depths."""
    cfg = GatewayConfig(
        total_slots=1, default_policy=TenantPolicy(max_concurrent=1, max_queued=3)
    )
    cluster = _cluster(gateway=cfg)
    ads = cluster.gateway.open_session("alice", tenant="ads")
    web = cluster.gateway.open_session("bob", tenant="web")
    handles = [ads.submit(f"SELECT COUNT(*) FROM T WHERE a > {i}") for i in range(3)]
    web.submit("SELECT SUM(b) FROM T")
    web.submit("SELECT COUNT(*) FROM T", timeout_s=1e-6)
    ads.submit("SELECT MAX(b) FROM T")
    try:
        ads.submit("SELECT MIN(b) FROM T")
    except GatewayOverloadedError:
        pass
    cluster.gateway.kill_query(handles[2])
    mid = read(cluster)
    depths = {name: ts.queue_depth for name, ts in cluster.gateway.snapshot().tenants.items()}
    cluster.gateway.run_until_drained()
    return mid, depths, read(cluster)


def seeded_report():
    """A seeded three-tenant ``run_sessions`` with back-pressure."""
    cfg = GatewayConfig(
        total_slots=2, default_policy=TenantPolicy(max_concurrent=2, max_queued=4)
    )
    cluster = _cluster(gateway=cfg)
    traces = multi_tenant_sessions(
        "T",
        cluster.catalog.get("T").schema,
        MultiTenantConfig(
            num_tenants=3,
            num_sessions=24,
            queries_per_session=2.0,
            think_time_s=0.1,
            open_window_s=0.5,
            seed=5,
        ),
        value_ranges={"a": (0, 50), "b": (0.0, 1.0)},
    )
    for user in sorted({t.user for t in traces}):
        cluster.create_user(user, domains=["*"])
        cluster.acl.grant(user, "T")
    return run_sessions(cluster.gateway, traces, limit_s=1e6)


def _tenant_counts(report):
    return {
        name: {f: getattr(tr, f) for f in TENANT_COUNTS}
        for name, tr in report.per_tenant.items()
    }


def _json(value) -> str:
    return json.dumps(value, indent=1)


def test_metrics_reproduce_the_recorded_snapshot():
    golden = json.loads(GOLDEN.read_text())
    assert _json(plain_cluster().metrics()) == _json(golden["plain"])
    mid, depths, drained = gateway_snapshots(lambda c: c.metrics())
    assert _json(mid) == _json(golden["gateway_mid"])
    assert _json(depths) == _json(golden["gateway_mid_tenant_queue_depth"])
    assert _json(drained) == _json(golden["gateway_drained"])
    report = seeded_report()
    assert _json(report.as_dict()) == _json(golden["report"])
    assert _json(_tenant_counts(report)) == _json(golden["report_per_tenant"])


def test_recorded_snapshot_exercises_every_gateway_outcome():
    golden = json.loads(GOLDEN.read_text())
    drained = golden["gateway_drained"]
    for key in ("admitted", "rejected", "completed", "killed", "timed_out"):
        assert drained[f"gateway_{key}"] > 0, key
    assert golden["report"]["rejected"] > 0
    assert golden["plain"]["results_spilled"] > 0
    assert golden["plain"]["leaves_alive"] < golden["plain"]["leaves_total"]


def test_aggregate_index_stats_sums_every_field_including_ttl_sweeps():
    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=1, nodes_per_rack=4))
    rng = np.random.default_rng(1)
    cluster.load_table(
        "T",
        Schema.of(a=DataType.INT64),
        {"a": rng.integers(0, 50, 2000)},
        storage="storage-a",
        block_rows=250,
    )
    for i in range(3):
        cluster.query(f"SELECT COUNT(*) FROM T WHERE a > {i}")
    managers = [leaf.index_manager for leaf in cluster.leaves]
    total = cluster.aggregate_index_stats()
    assert isinstance(total, IndexStats)
    assert total.ttl_sweeps == sum(m.stats.ttl_sweeps for m in managers) > 0
    for f in fields(IndexStats):
        assert getattr(total, f.name) == sum(getattr(m.stats, f.name) for m in managers)


def test_daemon_counters_reach_the_snapshot_only_when_their_daemon_exists():
    cluster = _cluster(elastic=ElasticConfig())
    for _ in range(4):
        cluster.query("SELECT COUNT(*) FROM T WHERE a > 10")
    cluster.sim.run(until=cluster.sim.now + 120.0)
    m = cluster.metrics()
    prefix, stats = "rebalance_", cluster.elastic.rebalancer.stats
    names = [prefix + f.name for f in fields(RebalanceStats)]
    assert [k for k in m if k.startswith(prefix)] == names
    assert {k: m[k] for k in m if k.startswith(prefix)} == counters(stats, prefix)
    assert m["rebalance_cycles"] > 0
    plain = _cluster().metrics()
    assert not [k for k in plain if k.startswith(prefix)]


def test_counters_and_summed_read_declared_numeric_fields():
    a = IndexStats(hits=2, ttl_sweeps=5)
    b = IndexStats(hits=1, misses=3)
    assert list(counters(a, "x_")) == ["x_" + f.name for f in fields(IndexStats)]
    assert counters(a, "x_")["x_ttl_sweeps"] == 5
    total = summed([a, b], IndexStats)
    assert (total.hits, total.misses, total.ttl_sweeps) == (3, 3, 5)
    assert summed([], IndexStats) == IndexStats()
