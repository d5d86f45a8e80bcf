#!/usr/bin/env python
"""Operations view: replay a production-shaped trace, watch the cluster.

Combines three pieces the paper's operators relied on:

* the §IV-A drill-down workload generator producing a timed trace;
* the gateway's open-loop driver replaying it, one session per analyst,
  with real arrival gaps on the simulated clock (so index TTLs and cache
  churn behave);
* the monitoring surface (§III-C: shadows serve "monitoring running
  information") summarizing device, network, index and job health, first
  as one snapshot, then as a rolling series sampled on the simulated
  clock while more of the trace replays;
* its per-query view: the command-line tool's ``EXPLAIN ANALYZE``, the
  plan annotated with where one join query's simulated time went.

Run with::

    python examples/trace_replay_monitoring.py
"""

from dataclasses import replace

from repro import FeisuCluster, FeisuConfig
from repro.client import cli
from repro.gateway import GatewayConfig
from repro.gateway.driver import run_sessions
from repro.workload.datasets import DatasetSpec, load_paper_datasets
from repro.workload.generator import WorkloadConfig, WorkloadGenerator, user_sessions


def main() -> None:
    cluster = FeisuCluster(
        FeisuConfig(datacenters=1, racks_per_datacenter=2, nodes_per_rack=8, gateway=GatewayConfig())
    )
    spec = DatasetSpec("T1", 16_000, 12, "storage-a", 16_000 * 1500, seed=101)
    tables = load_paper_datasets(cluster, [spec], block_rows=2048)

    gen = WorkloadGenerator(
        "T1",
        tables["T1"].schema,
        WorkloadConfig(num_users=10, think_time_s=400.0, seed=55, aggregate_fraction=0.8),
        value_ranges={"click_count": (0, 50), "position": (1, 10), "user_id": (0, 5000)},
        contains_values={"url": [f"site{i}" for i in range(5)]},
    )
    queries = gen.generate(4 * 3600.0)[:160]
    trace = queries[:120]
    print(f"replaying {len(trace)} queries from {len({q.user for q in trace})} analysts "
          f"over a simulated {trace[-1].at_s / 3600:.1f} h window...\n")

    # Each analyst opens one gateway session; every query is submitted
    # at its own trace time on the simulated clock.
    for user in sorted({q.user for q in queries}):
        cluster.create_user(user, tables=["T1"])
    report = run_sessions(cluster.gateway, user_sessions(trace))

    print("== service profile ==")
    print(f"  queries:      {report.submitted} ({report.completed / report.submitted:.0%} ok)")
    print(f"  median:       {report.total_p50_s * 1000:8.1f} ms")
    print(f"  p99:          {report.total_p99_s * 1000:8.1f} ms")
    print(f"  makespan:     {report.makespan_s / 3600:8.2f} h")

    m = cluster.metrics()
    print("\n== cluster monitoring snapshot ==")
    for key, value in m.items():
        if isinstance(value, float) and not float(value).is_integer():
            print(f"  {key:36s} {value:12.4f}")
        else:
            print(f"  {key:36s} {value:12g}")

    stats = cluster.aggregate_index_stats()
    print(
        f"\nSmartIndex across the trace: {stats.hits + stats.complement_hits}"
        f"/{stats.lookups} lookups hit "
        f"({stats.creations} entries created, {stats.evictions_ttl} TTL evictions)"
    )

    # Rolling view: one snapshot every simulated 5 minutes while the next
    # 40 queries of the trace replay.  The driver counts trace times from
    # the moment it starts, so the rest of the trace is shifted to now.
    series = cluster.start_metrics_sampler(period_s=300.0, retention_s=3600.0)
    now = cluster.sim.now
    run_sessions(cluster.gateway, user_sessions(replace(q, at_s=q.at_s - now) for q in queries[120:]))
    print("\n== index hit rate, sampled every 5 simulated minutes ==")
    for t, rate in zip(series.timestamps(), series.series("index_hit_rate")):
        print(f"  t={t / 3600:5.2f} h  {rate:.4f}")

    # One query up close, through the command-line tool on its own small
    # demo deployment: EXPLAIN ANALYZE runs it traced and prints the plan
    # with each phase's simulated time; EXPLAIN only plans; a misspelt
    # column reports an error and the script goes on.
    print("\n== one query up close: feisu-cli ==")
    cli.main([
        "--t1-rows", "5000", "--t2-rows", "2000", "--t3-rows", "500", "--nodes", "2",
        "--sql", "EXPLAIN ANALYZE SELECT T3.province, COUNT(*) AS n, SUM(T1.dwell_time) AS d "
        "FROM T1 JOIN T3 ON T1.query_id = T3.query_id "
        "WHERE T1.position < 6 AND T1.click_count + T3.click_count > 2 "
        "GROUP BY T3.province HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 3",
        "--sql", "EXPLAIN SELECT url FROM T1 ORDER BY url LIMIT 3",
        "--sql", "SELECT province, COUNT(*) FROM T1 GROUP BY province",
        "--sql", "SELECT clicks FROM T1",
    ])


if __name__ == "__main__":
    main()
