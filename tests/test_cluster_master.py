"""Integration tests through the full cluster: admission, execution,
fault tolerance, task reuse, partial results."""

import numpy as np
import pytest

from repro import FeisuCluster, FeisuConfig, JobOptions
from repro.cluster.jobs import JobStatus
from repro.errors import AccessDeniedError, AnalysisError, QueryTimeout
from repro.sim.events import Simulator


def test_count_matches_reference(small_cluster):
    cols = small_cluster._test_columns
    r = small_cluster.query("SELECT COUNT(*) FROM T WHERE c1 < 50")
    assert r.rows()[0][0] == int((cols["c1"] < 50).sum())
    assert r.stats["response_time_s"] > 0


def test_group_by_join_through_cluster(small_cluster):
    cols = small_cluster._test_columns
    r = small_cluster.query(
        "SELECT label, COUNT(*) n FROM T JOIN D ON T.c2 = D.c2 "
        "GROUP BY label ORDER BY label LIMIT 3"
    )
    counts = np.bincount(cols["c2"], minlength=10)
    assert r.rows() == [(f"grp{i}", int(counts[i])) for i in range(3)]


def test_unknown_user_denied(small_cluster):
    with pytest.raises(AccessDeniedError):
        small_cluster.query("SELECT COUNT(*) FROM T", user="nobody")


def test_granted_user_allowed(small_cluster):
    small_cluster.create_user("bob", tables=["T"])
    r = small_cluster.query("SELECT COUNT(*) FROM T", user="bob")
    assert r.num_rows == 1


def test_granted_user_denied_other_table(small_cluster):
    small_cluster.create_user("carol", tables=["T"])
    with pytest.raises(AccessDeniedError):
        small_cluster.query("SELECT COUNT(*) FROM D", user="carol")


def test_bad_sql_raises_before_running(small_cluster):
    with pytest.raises(AnalysisError):
        small_cluster.query("SELECT missing_col FROM T")


def test_repeat_query_faster_with_smartindex(fresh_cluster):
    sql = "SELECT COUNT(*) FROM T WHERE c2 > 2 AND c2 <= 8"
    r1 = fresh_cluster.query(sql)
    r2 = fresh_cluster.query(sql)
    assert r1.rows() == r2.rows()
    assert r2.stats["index_full_covers"] > 0
    assert r2.stats["response_time_s"] < r1.stats["response_time_s"]


def test_complement_rewrite_through_cluster(fresh_cluster):
    cols = fresh_cluster._test_columns
    expected = int(((cols["c2"] > 2) & (cols["c2"] <= 8)).sum())
    r1 = fresh_cluster.query("SELECT COUNT(*) FROM T WHERE c2 > 2 AND c2 <= 8")
    r2 = fresh_cluster.query("SELECT COUNT(*) FROM T WHERE c2 > 2 AND NOT (c2 > 8)")
    assert r1.rows()[0][0] == expected == r2.rows()[0][0]
    assert r2.stats["index_full_covers"] > 0


def test_concurrent_identical_tasks_reused(fresh_cluster):
    sql = "SELECT COUNT(*) FROM T WHERE c1 >= 10"
    job1, done1 = fresh_cluster.submit(sql)
    job2, done2 = fresh_cluster.submit(sql)
    fresh_cluster.sim.run_until_complete(done1)
    fresh_cluster.sim.run_until_complete(done2)
    assert job1.result.rows() == job2.result.rows()
    assert job2.stats.tasks_reused == job2.stats.tasks_total
    assert fresh_cluster.master.job_manager.reuse_hits_running > 0


def test_leaf_crash_recovered_by_backup(fresh_cluster):
    # Kill a leaf holding data; the supervisor must reroute its tasks.
    victim = fresh_cluster.leaves[1]
    victim.crash()
    cols = fresh_cluster._test_columns
    r = fresh_cluster.query("SELECT COUNT(*) FROM T")
    assert r.rows()[0][0] == len(cols["c1"])


def test_all_leaves_down_fails(fresh_cluster):
    for leaf in fresh_cluster.leaves:
        leaf.crash()
    # Scheduling still sees them alive until heartbeats lapse; crash-fail
    # then exhausts every candidate.
    job = fresh_cluster.query_job("SELECT COUNT(*) FROM T")
    assert job.status in (JobStatus.FAILED, JobStatus.TIMED_OUT) or job.stats.tasks_failed > 0


def test_deadline_returns_partial_or_times_out(fresh_cluster):
    options = JobOptions(max_time_s=1e-6, min_processed_ratio=1.0)
    job = fresh_cluster.query_job("SELECT COUNT(*) FROM T", options=options)
    assert job.status is JobStatus.TIMED_OUT
    assert isinstance(job.error, QueryTimeout)


def test_deadline_with_tolerant_ratio_gives_partial(fresh_cluster):
    options = JobOptions(max_time_s=1e-6, min_processed_ratio=0.0)
    job = fresh_cluster.query_job("SELECT COUNT(*) FROM T", options=options)
    assert job.status is JobStatus.SUCCEEDED
    assert job.result.processed_ratio < 1.0


def test_early_return_at_ratio(fresh_cluster):
    options = JobOptions(min_processed_ratio=0.5)
    job = fresh_cluster.query_job("SELECT COUNT(*) FROM T", options=options)
    assert job.status is JobStatus.SUCCEEDED
    assert 0.0 < job.result.processed_ratio <= 1.0


def test_quota_enforced(fresh_cluster):
    from repro.security.acl import Quota

    fresh_cluster.create_user("limited", admin=True)
    fresh_cluster.quota.set_quota("limited", Quota(max_queries_per_day=1))
    fresh_cluster.query("SELECT COUNT(*) FROM T", user="limited")
    from repro.errors import QuotaExceededError

    with pytest.raises(QuotaExceededError):
        fresh_cluster.query("SELECT COUNT(*) FROM T", user="limited")


def test_locality_scheduling_prefers_replicas(fresh_cluster):
    fresh_cluster.query("SELECT COUNT(*) FROM T WHERE c1 > 5")
    sched = fresh_cluster.scheduler
    assert sched.placements_local > 0
    assert sched.placements_local >= sched.placements_remote


def test_heartbeats_flow(fresh_cluster):
    fresh_cluster.sim.run(until=30.0)
    assert fresh_cluster.cluster_manager.heartbeats_received > 0


def test_pruned_empty_plan_succeeds(small_cluster):
    r = small_cluster.query("SELECT COUNT(*) FROM T WHERE c1 > 100000")
    assert r.rows()[0][0] == 0


def test_stats_surface(small_cluster):
    sql = "SELECT COUNT(*) FROM T WHERE c2 = 1"
    job = small_cluster.query_job(sql)
    for r in (small_cluster.query(sql), job.result):
        for key in ("io_bytes_modeled", "tasks_total", "response_time_s"):
            assert key in r.stats
    assert job.result.stats["response_time_s"] == job.stats.response_time_s


# -- a hop between co-located roles is not a message (S57) -------------------


def test_node_local_transfer_is_a_zero_delay_event():
    """Dispatch and the broadcast ship keep an event even node-local, so
    ``transfer`` gives one; the hops back up the tree make no call at all
    between co-located roles (the event budget below pins that)."""
    from repro.sim.netmodel import NetworkTopology, NodeAddress, TopologySpec, TrafficClass

    sim = Simulator()
    net = NetworkTopology(sim, TopologySpec(1, 2, 2))
    here, there = NodeAddress(0, 0, 0), NodeAddress(0, 1, 1)
    local = net.transfer(here, NodeAddress(0, 0, 0), 2048, TrafficClass.CONTROL)
    assert not local.triggered  # an event on the queue, not a resolved one
    sim.run_until_complete(local)
    assert sim.now == 0.0
    sim.run_until_complete(net.transfer(here, there, 2048, TrafficClass.CONTROL))
    assert sim.now > 0.0


def test_index_covered_query_stays_within_its_event_budget():
    """16 covered tasks on the end-to-end benchmark's 2 x 4 cluster, where
    master, rack-0 stem and one leaf share a node.  The count is exact
    and repeatable (it was 323 while co-located hops on the way back up
    the tree cost a zero-delay event each); raise the pin only with a
    reason."""
    from repro import DataType, Schema

    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=2, nodes_per_rack=4))
    rng = np.random.default_rng(7)
    cluster.load_table(
        "E",
        Schema.of(a=DataType.INT64, b=DataType.INT64),
        {"a": rng.integers(0, 1000, 4096), "b": rng.integers(0, 1000, 4096)},
        storage="storage-a",
        block_rows=256,
    )
    sql = "SELECT COUNT(*) FROM E WHERE a < 500"
    cluster.query(sql)  # builds the index entries
    job, done = cluster.submit(sql)
    steps = 0
    while not done.triggered:
        assert cluster.sim.step()
        steps += 1
    assert job.stats.tasks_total == job.stats.index_full_covers == 16
    assert steps <= 279


def test_node_local_hops_draw_no_fault_randomness():
    """On one node every hop and every heartbeat is node-local: with an
    injector installed nothing is dropped, delayed or even drawn for."""
    from repro import DataType, Schema
    from repro.faults.plan import FaultPlan, MessageDelay, MessageDrop

    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=1, nodes_per_rack=1))
    cluster.load_table(
        "E", Schema.of(a=DataType.INT64), {"a": np.arange(2000)}, storage="storage-a", block_rows=250
    )
    injector = cluster.install_faults(
        FaultPlan().add(MessageDrop(probability=0.5), MessageDelay(extra_s=0.1, probability=0.5)),
        seed=3,
    )
    rng_state = injector.rng.bit_generator.state
    job = cluster.query_job(
        "SELECT a FROM E WHERE a < 900", options=JobOptions(spill_threshold_bytes=1.0)
    )
    cluster.sim.run(until=cluster.sim.now + 12.0)  # a few heartbeat rounds
    assert job.status is JobStatus.SUCCEEDED and job.result.num_rows == 900
    assert job.stats.results_spilled > 0
    assert cluster.cluster_manager.heartbeats_received > 0
    assert injector.rng.bit_generator.state == rng_state
    assert injector.dropped == injector.delayed == 0
