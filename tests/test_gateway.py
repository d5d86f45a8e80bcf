"""Multi-tenant SQL gateway: sessions, admission, fair share, kill/timeout (S52)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, JobOptions, Schema
from repro.cluster import master as master_module
from repro.cluster.metrics import MetricsTimeSeries, collect_metrics
from repro.errors import (
    AccessDeniedError,
    FeisuError,
    GatewayOverloadedError,
    ParseError,
    QueryCancelled,
    QueryTimeout,
    QuotaExceededError,
    SessionClosedError,
)
from repro.gateway import (
    GatewayConfig,
    QueryStatus,
    SessionState,
    TenantPolicy,
    estimate_query_memory,
    jain_index,
    percentile,
    run_sessions,
)
from repro.gateway import fairshare
from repro.planner.physical import scan_blocks
from repro.security.acl import Quota
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.workload.generator import MultiTenantConfig, multi_tenant_sessions


def memory_need(cluster, sql: str) -> float:
    analyzed = analyze(parse(sql), cluster.catalog)
    return estimate_query_memory(analyzed, scan_blocks(analyzed)[0], cluster.catalog)


def make_cluster(gateway: GatewayConfig = None, **config_kwargs) -> FeisuCluster:
    """Small cluster with 3-block table T, dimension D, users alice/bob."""
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=4,
            gateway=gateway,
            **config_kwargs,
        )
    )
    rng = np.random.default_rng(11)
    n = 3000
    columns = {
        "c1": rng.integers(0, 100, n),
        "c2": rng.integers(0, 10, n),
        "clicks": rng.random(n),
    }
    schema = Schema.of(c1=DataType.INT64, c2=DataType.INT64, clicks=DataType.FLOAT64)
    cluster.load_table("T", schema, columns, storage="storage-a", block_rows=1000)
    dim = {
        "c2": np.arange(10),
        "weight": np.linspace(0.1, 1.0, 10),
    }
    cluster.load_table(
        "D",
        Schema.of(c2=DataType.INT64, weight=DataType.FLOAT64),
        dim,
        storage="storage-b",
        block_rows=100,
    )
    for user in ("alice", "bob"):
        cluster.create_user(user, domains=["*"])
        cluster.acl.grant(user, "T")
        cluster.acl.grant(user, "D")
    return cluster


def drain(gateway, sample=False):
    """Step the sim until idle; optionally sample concurrency maxima."""
    sim = gateway.cluster.sim
    max_running = 0
    max_by_tenant = {}
    while gateway.in_flight() > 0:
        if not sim.step():
            raise AssertionError("deadlock while draining the gateway")
        if sample:
            max_running = max(max_running, gateway.admission.running)
            for tq in gateway.admission.tenants():
                max_by_tenant[tq.name] = max(
                    max_by_tenant.get(tq.name, 0), tq.running
                )
    return max_running, max_by_tenant


# -- wiring & flag gating --------------------------------------------------


def test_flag_off_builds_no_gateway():
    cluster = make_cluster(gateway=None)
    assert cluster.gateway is None


def test_total_slots_must_fit_master(monkeypatch):
    monkeypatch.setattr(master_module, "MAX_CONCURRENT_JOBS", 8)
    with pytest.raises(ValueError, match="max_concurrent_jobs"):
        make_cluster(gateway=GatewayConfig(total_slots=16))
    with pytest.raises(ValueError, match="at least 1"):
        make_cluster(gateway=GatewayConfig(total_slots=0))


def test_open_session_authenticates():
    cluster = make_cluster(gateway=GatewayConfig())
    session = cluster.gateway.open_session("alice")
    assert session.tenant == "alice"  # defaults to the user
    assert session.state is SessionState.OPEN
    named = cluster.gateway.open_session("alice", tenant="ads")
    assert named.tenant == "ads"
    assert named.session_id != session.session_id
    with pytest.raises(FeisuError, match="unknown user"):
        cluster.gateway.open_session("mallory")


def test_session_query_matches_direct_path():
    sql = "SELECT c1, SUM(clicks) FROM T WHERE c2 < 5 GROUP BY c1"
    gated = make_cluster(gateway=GatewayConfig())
    session = gated.gateway.open_session("alice", tenant="ads")
    via_gateway = session.query(sql)
    direct = make_cluster(gateway=None).query(sql, user="alice")
    assert sorted(via_gateway.rows()) == sorted(direct.rows())
    assert via_gateway.stats["response_time_s"] > 0.0


# -- pre-flight & session lifecycle ----------------------------------------


def test_preflight_rejects_before_admission():
    cluster = make_cluster(gateway=GatewayConfig())
    session = cluster.gateway.open_session("alice", tenant="ads")
    admitted_before = cluster.master.entry_guard.admitted
    with pytest.raises(ParseError):
        session.submit("SELEC c1 FROM T")
    with pytest.raises(ValueError, match="JobOptions.max_time_s"):
        session.submit("SELECT c1 FROM T", options=JobOptions(max_time_s=-1.0))
    cluster.acl.revoke("alice", "T")
    with pytest.raises(AccessDeniedError):
        session.submit("SELECT c1 FROM T")
    # Nothing reached admission control or the master's entry guard.
    assert cluster.master.entry_guard.admitted == admitted_before
    assert cluster.gateway.in_flight() == 0
    assert session.queries == []


def test_closed_session_rejects_submissions():
    cluster = make_cluster(gateway=GatewayConfig())
    session = cluster.gateway.open_session("alice")
    session.close()
    assert session.state is SessionState.CLOSED
    with pytest.raises(SessionClosedError):
        session.submit("SELECT COUNT(*) FROM T")


# -- admission control ------------------------------------------------------


def test_queue_overflow_rejects_with_backpressure():
    cfg = GatewayConfig(
        total_slots=1, default_policy=TenantPolicy(max_concurrent=1, max_queued=2)
    )
    cluster = make_cluster(gateway=cfg)
    session = cluster.gateway.open_session("alice", tenant="ads")
    # One runs, two queue, the fourth bounces.
    for _ in range(3):
        session.submit("SELECT COUNT(*) FROM T")
    with pytest.raises(GatewayOverloadedError, match="admission queue is full"):
        session.submit("SELECT COUNT(*) FROM T")
    tq = cluster.gateway.admission.tenant("ads")
    assert tq.rejected == 1
    assert tq.admitted == 3
    drain(cluster.gateway)
    assert tq.completed == 3


def test_slot_and_tenant_concurrency_limits_hold():
    cfg = GatewayConfig(
        total_slots=3,
        default_policy=TenantPolicy(max_concurrent=2, max_queued=64),
    )
    cluster = make_cluster(gateway=cfg)
    ads = cluster.gateway.open_session("alice", tenant="ads")
    search = cluster.gateway.open_session("bob", tenant="search")
    handles = []
    for i in range(8):
        handles.append(ads.submit(f"SELECT COUNT(*) FROM T WHERE c1 < {40 + i}"))
        handles.append(search.submit(f"SELECT COUNT(*) FROM T WHERE c1 > {40 + i}"))
    max_running, max_by_tenant = drain(cluster.gateway, sample=True)
    assert all(h.status is QueryStatus.SUCCEEDED for h in handles)
    assert max_running <= 3
    assert max_by_tenant["ads"] <= 2
    assert max_by_tenant["search"] <= 2
    assert max_running >= 2  # the pool actually ran concurrently


def test_memory_budget_serializes_queries():
    cluster = make_cluster(gateway=GatewayConfig())
    need = memory_need(cluster, "SELECT COUNT(*) FROM T")
    assert need > 0
    # Budget fits one query but not two: they must run one at a time.
    cfg = GatewayConfig(
        total_slots=4,
        memory_budget_bytes=need * 1.5,
        default_policy=TenantPolicy(max_concurrent=4, max_queued=64),
    )
    cluster = make_cluster(gateway=cfg)
    session = cluster.gateway.open_session("alice", tenant="ads")
    handles = [session.submit("SELECT COUNT(*) FROM T") for _ in range(4)]
    max_running, _ = drain(cluster.gateway, sample=True)
    assert max_running == 1
    assert all(h.status is QueryStatus.SUCCEEDED for h in handles)


def test_over_budget_singleton_still_runs():
    cluster = make_cluster(gateway=GatewayConfig())
    need = memory_need(cluster, "SELECT COUNT(*) FROM T")
    cfg = GatewayConfig(total_slots=2, memory_budget_bytes=need / 2)
    cluster = make_cluster(gateway=cfg)
    session = cluster.gateway.open_session("alice")
    handle = session.submit("SELECT COUNT(*) FROM T")
    drain(cluster.gateway)
    assert handle.status is QueryStatus.SUCCEEDED


def test_join_memory_estimate_includes_broadcast():
    cluster = make_cluster(gateway=GatewayConfig())
    join = "SELECT T.c1 FROM T JOIN D ON T.c2 = D.c2 WHERE D.weight > 0.5"
    assert memory_need(cluster, join) > memory_need(cluster, "SELECT COUNT(*) FROM T")


def test_gateway_prices_a_query_without_planning_it():
    # Admission prices a query from the blocks its plan will scan; only
    # the master builds the plan, so plan ids advance by one per query.
    cluster = make_cluster(gateway=GatewayConfig())
    session = cluster.gateway.open_session("alice")
    handles = []
    for sql in ("SELECT COUNT(*) FROM T WHERE c1 < 50", "SELECT SUM(clicks) FROM T"):
        handles.append(session.submit(sql))
        drain(cluster.gateway)
    first, second = (int(h.job.plan.plan_id.split("-")[1]) for h in handles)
    assert second == first + 1
    for h in handles:
        plan = h.job.plan
        assert h.cost_units == float(max(1, len(plan.tasks)))
        assert h.memory_bytes == estimate_query_memory(
            plan.analyzed, [t.block for t in plan.tasks], cluster.catalog
        )


# -- fair share -------------------------------------------------------------


def test_weighted_fair_share_tracks_weights(monkeypatch):
    monkeypatch.setattr(fairshare, "QUANTUM_UNITS", 3.0)
    cfg = GatewayConfig(
        total_slots=2,
        tenants={
            "ads": TenantPolicy(weight=2.0, max_concurrent=2, max_queued=128),
            "search": TenantPolicy(weight=1.0, max_concurrent=2, max_queued=128),
        },
    )
    cluster = make_cluster(gateway=cfg)
    ads = cluster.gateway.open_session("alice", tenant="ads")
    search = cluster.gateway.open_session("bob", tenant="search")
    handles = []
    for i in range(20):
        handles.append(ads.submit(f"SELECT COUNT(*) FROM T WHERE c1 >= {i}"))
        handles.append(search.submit(f"SELECT COUNT(*) FROM T WHERE c1 <= {99 - i}"))
    drain(cluster.gateway)
    # Walk emissions in time order until the first tenant fully drains;
    # over that contended window service must track the 2:1 weights.
    emissions = sorted(handles, key=lambda h: h.emitted_at)
    remaining = {"ads": 20, "search": 20}
    units = {"ads": 0.0, "search": 0.0}
    for h in emissions:
        units[h.tenant] += h.cost_units
        remaining[h.tenant] -= 1
        if remaining[h.tenant] == 0:
            break
    ratio = units["ads"] / units["search"]
    assert 1.5 <= ratio <= 2.5, f"served-unit ratio {ratio:.2f} not ~2:1"


def test_fair_share_is_work_conserving():
    cfg = GatewayConfig(
        total_slots=2,
        tenants={"ads": TenantPolicy(max_concurrent=2, max_queued=128)},
    )
    cluster = make_cluster(gateway=cfg)
    ads = cluster.gateway.open_session("alice", tenant="ads")
    # Only one tenant has demand: it may use the whole pool.
    handles = [ads.submit("SELECT COUNT(*) FROM T") for _ in range(6)]
    max_running, _ = drain(cluster.gateway, sample=True)
    assert max_running == 2
    assert all(h.status is QueryStatus.SUCCEEDED for h in handles)


# -- quotas, kill, timeout --------------------------------------------------


def test_master_quota_enforced_on_gateway_path():
    cluster = make_cluster(gateway=GatewayConfig())
    cluster.master.entry_guard.quota.set_quota(
        "alice", Quota(max_queries_per_day=2)
    )
    session = cluster.gateway.open_session("alice", tenant="ads")
    handles = [session.submit("SELECT COUNT(*) FROM T") for _ in range(3)]
    drain(cluster.gateway)
    statuses = [h.status for h in handles]
    assert statuses.count(QueryStatus.SUCCEEDED) == 2
    assert statuses.count(QueryStatus.FAILED) == 1
    failed = next(h for h in handles if h.status is QueryStatus.FAILED)
    with pytest.raises(QuotaExceededError):
        failed.result()


def test_kill_queued_and_running_queries():
    cfg = GatewayConfig(
        total_slots=1, default_policy=TenantPolicy(max_concurrent=1, max_queued=64)
    )
    cluster = make_cluster(gateway=cfg)
    session = cluster.gateway.open_session("alice", tenant="ads")
    running = session.submit("SELECT COUNT(*) FROM T")
    queued = session.submit("SELECT SUM(clicks) FROM T")
    assert running.status is QueryStatus.RUNNING
    assert queued.status is QueryStatus.QUEUED
    assert cluster.gateway.kill_query(queued)
    assert queued.status is QueryStatus.KILLED
    assert queued.done.triggered
    assert cluster.gateway.kill_query(running)
    drain(cluster.gateway)
    assert running.status is QueryStatus.KILLED
    with pytest.raises(QueryCancelled):
        running.result()
    # Terminal handles can't be re-killed.
    assert not cluster.gateway.kill_query(running)


def test_kill_query_by_id():
    cfg = GatewayConfig(
        total_slots=1, default_policy=TenantPolicy(max_concurrent=1, max_queued=64)
    )
    cluster = make_cluster(gateway=cfg)
    session = cluster.gateway.open_session("alice", tenant="ads")
    running = session.submit("SELECT COUNT(*) FROM T")
    queued = session.submit("SELECT SUM(clicks) FROM T")
    # The operator surface: kill by id string, no handle required.
    assert cluster.gateway.kill_query(queued.query_id)
    assert queued.status is QueryStatus.KILLED
    assert cluster.gateway.kill_query(running.query_id)
    drain(cluster.gateway)
    assert running.status is QueryStatus.KILLED
    assert not cluster.gateway.kill_query(running.query_id)  # already terminal
    assert not cluster.gateway.kill_query("gq-does-not-exist")


def test_kill_session_releases_slots_for_other_tenants():
    cfg = GatewayConfig(
        total_slots=1, default_policy=TenantPolicy(max_concurrent=1, max_queued=64)
    )
    cluster = make_cluster(gateway=cfg)
    ads = cluster.gateway.open_session("alice", tenant="ads")
    search = cluster.gateway.open_session("bob", tenant="search")
    hog = [ads.submit("SELECT COUNT(*) FROM T") for _ in range(3)]
    starved = search.submit("SELECT SUM(clicks) FROM T")
    killed = ads.kill()
    assert killed == 3
    assert ads.state is SessionState.KILLED
    drain(cluster.gateway)
    assert all(h.status is QueryStatus.KILLED for h in hog)
    assert starved.status is QueryStatus.SUCCEEDED
    assert cluster.gateway.admission.running == 0
    with pytest.raises(SessionClosedError):
        ads.submit("SELECT COUNT(*) FROM T")


def test_timeout_covers_queue_wait_and_service():
    cfg = GatewayConfig(
        total_slots=1,
        default_policy=TenantPolicy(
            max_concurrent=1, max_queued=64, query_timeout_s=1e-6
        ),
    )
    cluster = make_cluster(gateway=cfg)
    session = cluster.gateway.open_session("alice", tenant="ads")
    # Policy default timeout: the running query is far slower than 1 µs.
    running = session.submit("SELECT COUNT(*) FROM T")
    # Explicit per-query override beats the policy default.
    patient = session.submit("SELECT SUM(clicks) FROM T", timeout_s=1e6)
    drain(cluster.gateway)
    assert running.status is QueryStatus.TIMED_OUT
    with pytest.raises(QueryTimeout):
        running.result()
    assert patient.status is QueryStatus.SUCCEEDED
    # A queued query can expire without ever being emitted.
    blocker = session.submit("SELECT COUNT(*) FROM T", timeout_s=1e6)
    never_runs = session.submit("SELECT COUNT(*) FROM T", timeout_s=1e-6)
    drain(cluster.gateway)
    assert blocker.status is QueryStatus.SUCCEEDED
    assert never_runs.status is QueryStatus.TIMED_OUT
    assert never_runs.emitted_at is None


# -- observability ----------------------------------------------------------


def test_metrics_surface_gateway_counters():
    cfg = GatewayConfig(
        total_slots=1, default_policy=TenantPolicy(max_concurrent=1, max_queued=64)
    )
    cluster = make_cluster(gateway=cfg)
    session = cluster.gateway.open_session("alice", tenant="ads")
    for _ in range(3):
        session.submit("SELECT COUNT(*) FROM T")
    mid = collect_metrics(cluster)
    assert mid["gateway_sessions_open"] == 1
    assert mid["gateway_running"] == 1
    assert mid["gateway_queue_depth"] == 2
    tenants = cluster.gateway.snapshot().tenants
    assert {name: ts.queue_depth for name, ts in tenants.items()} == {"ads": 2}
    assert mid["gateway_memory_in_use"] > 0
    drain(cluster.gateway)
    done = collect_metrics(cluster)
    assert done["gateway_completed"] == 3
    assert done["gateway_queue_depth"] == 0
    assert done["gateway_admitted"] == 3
    # Flag off: all gateway fields stay zero.
    plain_cluster = make_cluster(gateway=None)
    plain = collect_metrics(plain_cluster)
    assert plain["gateway_admitted"] == 0
    assert plain_cluster.gateway is None  # no per-tenant queue depths to read


def test_metrics_time_series_carries_gateway_depth():
    cfg = GatewayConfig(
        total_slots=1, default_policy=TenantPolicy(max_concurrent=1, max_queued=64)
    )
    cluster = make_cluster(gateway=cfg)
    ts = MetricsTimeSeries(cluster, period_s=0.0001).start()
    session = cluster.gateway.open_session("alice", tenant="ads")
    for _ in range(4):
        session.submit("SELECT COUNT(*) FROM T")
    drain(cluster.gateway)
    depths = ts.series("gateway_queue_depth")
    assert depths, "sampler took no samples"
    assert max(depths) >= 1  # backlog was visible to the sampler


def test_gateway_handles_record_queue_wait():
    cfg = GatewayConfig(
        total_slots=1,
        default_policy=TenantPolicy(max_concurrent=1, max_queued=64),
    )
    cluster = make_cluster(gateway=cfg)
    session = cluster.gateway.open_session("alice", tenant="ads")
    first = session.submit("SELECT COUNT(*) FROM T")
    second = session.submit("SELECT SUM(clicks) FROM T")
    drain(cluster.gateway)
    assert first.queue_wait_s == 0.0
    assert second.queue_wait_s > 0.0
    assert second.queue_wait_s == pytest.approx(second.emitted_at - second.submitted_at)
    for handle in (first, second):
        assert handle.result().stats["response_time_s"] == handle.job.stats.response_time_s > 0.0


# -- driver & helpers -------------------------------------------------------


def test_percentile_and_jain_helpers():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0], 0.99) == 3.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
    assert jain_index([]) == 1.0
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_run_sessions_replays_traces_and_reports():
    cfg = GatewayConfig(
        total_slots=2,
        default_policy=TenantPolicy(max_concurrent=2, max_queued=512),
    )
    cluster = make_cluster(gateway=cfg)
    schema = cluster.catalog.get("T").schema
    traces = multi_tenant_sessions(
        "T",
        schema,
        MultiTenantConfig(
            num_tenants=3,
            num_sessions=40,
            queries_per_session=2.0,
            think_time_s=0.2,
            open_window_s=1.0,
            seed=7,
        ),
        value_ranges={"c1": (0, 100), "c2": (0, 10)},
    )
    for user in sorted({t.user for t in traces}):
        cluster.create_user(user, domains=["*"])
        cluster.acl.grant(user, "T")
    report = run_sessions(cluster.gateway, traces, limit_s=1e6)
    assert report.sessions == 40
    assert report.submitted > 0
    assert report.completed == report.submitted
    assert report.failed == report.killed == report.timed_out == 0
    assert report.service_p99_s >= report.service_p50_s > 0
    assert report.total_p99_s >= report.service_p99_s
    assert 0.0 < report.jain_fairness <= 1.0
    assert set(report.per_tenant) == {t.tenant for t in traces}
    assert sum(tr.admitted for tr in report.per_tenant.values()) == report.submitted
    d = report.as_dict()
    assert d["sessions"] == 40.0
    assert d["jain_fairness"] == report.jain_fairness
