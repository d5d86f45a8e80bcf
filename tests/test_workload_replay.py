"""Timed trace replay through the gateway's open-loop driver."""

import numpy as np
import pytest

from repro import FeisuCluster, FeisuConfig, Schema, DataType
from repro.errors import AnalysisError
from repro.gateway import GatewayConfig
from repro.gateway.driver import percentile, run_sessions
from repro.gateway.session import QueryStatus
from repro.workload.generator import (
    TimedQuery,
    WorkloadConfig,
    WorkloadGenerator,
    user_sessions,
)


@pytest.fixture()
def cluster():
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1, racks_per_datacenter=2, nodes_per_rack=4, gateway=GatewayConfig()
        )
    )
    rng = np.random.default_rng(1)
    n = 3000
    cluster.load_table(
        "T",
        Schema.of(a=DataType.INT64, b=DataType.FLOAT64),
        {"a": rng.integers(0, 20, n), "b": rng.random(n)},
        block_rows=800,
        storage="storage-a",
    )
    return cluster


def _replay(cluster, trace):
    """Run ``trace`` through ``run_sessions``; the report and every
    query handle in submission order."""
    for user in sorted({q.user for q in trace}):
        cluster.create_user(user, tables=["T"])
    report = run_sessions(cluster.gateway, user_sessions(trace), limit_s=1e6)
    return report, report.queries


def _trace():
    return [
        TimedQuery(10.0, "u1", "SELECT COUNT(*) FROM T WHERE a > 5"),
        TimedQuery(20.0, "u2", "SELECT SUM(b) FROM T WHERE a > 5"),
        TimedQuery(30.0, "u1", "SELECT COUNT(*) FROM T WHERE a > 5"),
    ]


def test_user_sessions_groups_a_stream_by_user():
    trace = _trace() + [TimedQuery(5.0, "u3", "SELECT COUNT(*) FROM T")]
    sessions = user_sessions(trace)
    assert [(s.tenant, s.user, s.opens_at_s) for s in sessions] == [
        ("u3", "u3", 5.0), ("u1", "u1", 10.0), ("u2", "u2", 20.0),
    ]
    assert [q.at_s for q in sessions[1].queries] == [10.0, 30.0]


def test_replay_honours_arrival_times(cluster):
    report, handles = _replay(cluster, _trace())
    assert report.submitted == report.completed == 3
    assert [h.submitted_at for h in handles] == [10.0, 20.0, 30.0]
    assert all(h.service_s > 0 for h in handles)


def test_replay_sequential_submitted_at_is_arrival(cluster):
    # Queries far enough apart run alone: each is submitted to the
    # master at its arrival instant and finishes after it.
    _report, handles = _replay(cluster, _trace())
    for handle, at in zip(handles, (10.0, 20.0, 30.0)):
        assert handle.job.submitted_at == handle.submitted_at == at
        assert handle.submitted_at < handle.finished_at


def test_replay_concurrent_reuses_identical_tasks(cluster):
    # Two identical queries arriving in the same instant share their
    # tasks: the second reuses every one of the first's four.
    trace = [
        TimedQuery(5.0, "u1", "SELECT COUNT(*) FROM T WHERE a > 7"),
        TimedQuery(5.0, "u2", "SELECT COUNT(*) FROM T WHERE a > 7"),
    ]
    report, handles = _replay(cluster, trace)
    assert report.completed == 2
    assert [h.job.stats.tasks_reused for h in handles] == [0, 4]
    assert handles[0].job.stats.response_time_s == handles[1].job.stats.response_time_s


def test_replay_concurrent_sessions_overlap(cluster):
    # Same-instant arrivals on disjoint predicates must run as
    # overlapping sessions on the simulated clock: both start at the
    # submit instant and their execution intervals intersect.
    trace = [
        TimedQuery(5.0, "u1", "SELECT COUNT(*) FROM T WHERE a > 3"),
        TimedQuery(5.0, "u2", "SELECT SUM(b) FROM T WHERE a < 9"),
    ]
    report, handles = _replay(cluster, trace)
    assert report.completed == 2
    jobs = [h.job for h in handles]
    assert all(h.submitted_at == 5.0 for h in handles)
    assert all(j.started_at == 5.0 for j in jobs)
    # Overlap: each job starts before the other finishes.
    assert jobs[0].started_at < jobs[1].finished_at
    assert jobs[1].started_at < jobs[0].finished_at


def test_replay_concurrent_collects_out_of_order_completions(cluster):
    # A lighter query submitted later (block pruning leaves it no task)
    # finishes while a heavier one is still running; the driver waits
    # for both.
    trace = [
        TimedQuery(2.0, "u1", "SELECT SUM(b), COUNT(*) FROM T"),
        TimedQuery(2.005, "u2", "SELECT COUNT(*) FROM T WHERE a > 100"),
    ]
    report, handles = _replay(cluster, trace)
    assert report.completed == report.submitted == 2
    assert [h.user for h in handles] == ["u1", "u2"]
    assert handles[1].finished_at < handles[0].finished_at
    assert report.makespan_s == handles[0].finished_at


def test_replay_raises_on_bad_queries(cluster):
    with pytest.raises(AnalysisError, match="nope"):
        _replay(cluster, [TimedQuery(1.0, "u", "SELECT nope FROM T")])


def test_replay_report_percentiles(cluster):
    report, handles = _replay(cluster, _trace())
    assert report.service_p50_s == percentile([h.service_s for h in handles], 0.5)
    assert 0 < report.service_p50_s <= report.service_p99_s <= report.total_p99_s
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5


def test_replay_generated_trace_end_to_end(cluster):
    gen = WorkloadGenerator(
        "T",
        cluster.catalog.get("T").schema,
        WorkloadConfig(num_users=3, think_time_s=50.0, seed=9, session_length=3),
        value_ranges={"a": (0, 20)},
    )
    trace = gen.generate(600.0)[:12]
    report, handles = _replay(cluster, trace)
    assert report.submitted == report.completed == len(trace)
    assert sorted(h.submitted_at for h in handles) == [q.at_s for q in trace]


def test_replay_leaves_no_session_open(cluster):
    # Each session closes once its last query is submitted, so the
    # gateway forgets it and its handles when they resolve; a second
    # replay on the same gateway leaves the same.
    for user in ("u1", "u2"):
        cluster.create_user(user, tables=["T"])
    for _ in range(2):
        report = run_sessions(cluster.gateway, user_sessions(_trace()), limit_s=1e6)
        assert [h.status for h in report.queries] == [QueryStatus.SUCCEEDED] * 3
        assert cluster.metrics()["gateway_sessions_open"] == 0
        assert cluster.gateway.sessions == {} and cluster.gateway.queries == {}
