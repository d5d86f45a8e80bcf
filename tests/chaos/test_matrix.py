"""The differential chaos matrix: ~12 named failure scenarios.

Each scenario composes fault primitives into a :class:`FaultPlan`, drives
real queries through the cluster under the always-on
:class:`InvariantMonitor`, whose oracle is stdlib sqlite3 over the same
tables (``tests/_oracle.py``; no statement here names one of its
``DIVERGENCES``), and pins the expected *recovery* behaviour
(backups rescuing stragglers, retries escaping partitions, re-admission
after false death, failover after master loss).  Every scenario is fully
determined by one seed; a failing run's report prints that seed and the
``CHAOS_SEED=<seed>`` command that replays the identical event sequence.

Assertions come in two strengths:

* **invariants** (via ``harness.finish``) hold for *any* seed;
* **outcome pins** (exact success counts for RNG-dependent plans) are
  guarded by ``seed == DEFAULT_SEED`` so a replay under a different seed
  still checks the invariants without asserting seed-specific outcomes.
"""

import numpy as np
import pytest

from repro import DataType, Schema
from repro.cluster.jobs import JobOptions, JobStatus
from repro.faults import (
    CrashWindow,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    MessageDuplicate,
    RackPartition,
    SlowNode,
    StorageStall,
    ZombieWindow,
)
from repro.sim.netmodel import TrafficClass

from tests.chaos.conftest import DEFAULT_SEED, make_harness

pytestmark = pytest.mark.chaos

SUCCEEDED = JobStatus.SUCCEEDED
TERMINAL = (JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.TIMED_OUT)


# -- network scenarios -------------------------------------------------------


def test_partition_during_shuffle(harness, seed):
    """Every replica of T is stranded in rack 1 and rack 1 is cut off at
    submit time: dispatch after dispatch times out across the partition
    until the window closes, then a retry attempt lands and the join
    still answers exactly."""
    storage = harness.cluster.storage_a
    for path in storage.list_paths():
        for addr in list(storage.locations(path)):
            if addr.rack == 0:
                storage.drop_replica(path, addr)
    harness.monitor.expect_replication(storage, floor=2)  # we dropped to 2
    harness.install(
        FaultPlan().add(RackPartition(racks=((0, 1),), at=0.0, duration=2.0))
    )
    job = harness.run(harness.Q_JOIN)
    assert job.status is SUCCEEDED, job.error
    assert job.stats.response_time_s >= 2.0  # it really waited out the window
    assert harness.injector.dropped > 0
    # After the heal the rack serves directly again.
    assert harness.run(harness.Q_GROUP).status is SUCCEEDED
    harness.finish("partition_during_shuffle")


def test_rack_partition_heal(harness, seed):
    """A short ToR outage must not get anyone declared dead: only one
    heartbeat round is lost, well under the miss limit."""
    harness.install(
        FaultPlan().add(RackPartition(racks=((0, 1),), at=0.05, duration=6.0))
    )
    first = harness.run(harness.Q_COUNT)
    assert first.status in TERMINAL
    harness.sim.run(until=12.0)  # crosses the t=5 heartbeat round
    assert harness.run(harness.Q_GROUP).status is SUCCEEDED
    assert harness.injector.dropped > 0  # rack 1's t=5 beats died here
    assert harness.cluster.cluster_manager.readmissions == 0
    harness.finish("rack_partition_heal")


def test_message_drop_storm(harness, seed):
    """Lossy fabric: every message class sees 12% loss for 40s; retries
    and backups must keep answers flowing, and never wrong."""
    harness.install(FaultPlan().add(MessageDrop(probability=0.12, at=0.0, duration=40.0)))
    statuses = []
    for sql in (harness.Q_COUNT, harness.Q_GROUP, harness.Q_JOIN):
        statuses.append(harness.run(sql).status)
    assert all(s in TERMINAL for s in statuses)
    if seed == DEFAULT_SEED:
        assert harness.injector.dropped > 0
        assert statuses.count(SUCCEEDED) >= 2, statuses
    harness.finish("message_drop_storm")


def test_duplicate_message_storm(harness, seed):
    """60% of messages delivered twice: link pressure rises but the
    at-most-once accounting invariant (no double-counted tasks) holds."""
    harness.install(FaultPlan().add(MessageDuplicate(probability=0.6, at=0.0, duration=30.0)))
    for sql in (harness.Q_GROUP, harness.Q_JOIN):
        job = harness.run(sql)
        assert job.status is SUCCEEDED, job.error
        assert job.stats.tasks_completed <= job.stats.tasks_total
    if seed == DEFAULT_SEED:
        assert harness.injector.duplicated > 0
    harness.finish("duplicate_message_storm")


def test_delayed_heartbeats_false_death(harness, seed):
    """Control-plane congestion delays every heartbeat past the sweep
    deadline: the whole membership is falsely declared dead, then the
    stale beats land and every worker is re-admitted — no corpses, and
    the cluster computes correctly again afterwards."""
    harness.install(
        FaultPlan().add(
            MessageDelay(extra_s=20.0, cls=TrafficClass.CONTROL, at=0.0, duration=22.0)
        )
    )
    manager = harness.cluster.cluster_manager
    harness.sim.run(until=21.0)
    # Everyone is falsely dead except the leaf co-located with the master
    # (node-local heartbeats never touch the fabric).
    assert sum(manager.is_alive(w.worker_id) for w in harness.cluster.leaves) == 1
    during = harness.run(harness.Q_COUNT)  # the one local leaf carries it
    assert during.status is SUCCEEDED, during.error
    harness.sim.run(until=45.0)
    # one re-admission per worker minus the two exempt co-located ones
    expected = len(harness.cluster.leaves) + len(harness.cluster.stems) - 2
    assert manager.readmissions == expected
    after = harness.run(harness.Q_GROUP)
    assert after.status is SUCCEEDED, after.error
    harness.finish("delayed_heartbeats_false_death")


def test_clock_skew_stragglers(harness, seed):
    """Two skewed nodes run slow *and* report late (device slowdown plus
    a 1s delay on everything they send); answers stay exact."""
    skewed = ("leaf-dc0/rack0/node2", "leaf-dc0/rack0/node4")
    plan = FaultPlan()
    for worker in skewed:
        plan.add(SlowNode(worker=worker, at=0.0, duration=30.0, factor=40.0))
        plan.add(
            MessageDelay(
                extra_s=1.0,
                src=harness.leaf(worker).address,
                at=0.0,
                duration=30.0,
            )
        )
    harness.install(plan)
    for sql in (harness.Q_GROUP, harness.Q_COUNT):
        job = harness.run(sql)
        assert job.status is SUCCEEDED, job.error
    assert harness.injector.delayed > 0
    harness.finish("clock_skew_stragglers")


# -- membership scenarios ----------------------------------------------------


def test_crash_during_index_build(harness, seed):
    """A leaf dies 20ms into the first (index-building) scan and comes
    back later; retries finish the job and the rebuilt leaf serves the
    re-run identically."""
    victim = "leaf-dc0/rack0/node1"
    harness.install(FaultPlan().add(CrashWindow(worker=victim, at=0.02, restart_after=5.0)))
    first = harness.run(harness.Q_GROUP)
    assert first.status is SUCCEEDED, first.error
    harness.sim.run(until=8.0)  # past the restart
    assert harness.leaf(victim).alive
    again = harness.run(harness.Q_GROUP)
    assert again.status is SUCCEEDED
    kinds = [r.kind for r in harness.injector.records]
    assert "crash" in kinds and "restart" in kinds
    harness.finish("crash_during_index_build")


def test_crash_restart_churn(harness, seed):
    """Rolling crash/restart churn under a query stream: every job
    terminal, successes exact, and the fully-healed cluster agrees."""
    harness.install(
        FaultPlan().add(
            CrashWindow(worker="leaf-dc0/rack0/node1", at=1.0, restart_after=6.0),
            CrashWindow(worker="leaf-dc0/rack1/node2", at=3.0, restart_after=6.0),
            CrashWindow(worker="leaf-dc0/rack0/node3", at=5.0, restart_after=6.0),
        )
    )
    ok = 0
    for i in range(6):
        job = harness.run(harness.Q_COUNT if i % 2 else harness.Q_GROUP)
        assert job.status in TERMINAL
        ok += job.status is SUCCEEDED
        harness.sim.run(until=harness.sim.now + 2.0)
    assert ok >= 4, f"only {ok}/6 queries survived the churn"
    harness.sim.run(until=30.0)  # all restarts done
    assert all(leaf.alive for leaf in harness.cluster.leaves)
    assert harness.run("SELECT COUNT(*) AS n FROM T").status is SUCCEEDED
    harness.finish("crash_restart_churn")


def test_zombie_readmission_storm(harness, seed):
    """Three leaves keep working but lose every heartbeat for 21s: the
    sweep declares them dead, their next beat re-admits them, and since
    their processes never died the re-admissions are *legitimate* (the
    corpse-resurrection invariant stays green)."""
    zombies = (
        "leaf-dc0/rack0/node2",
        "leaf-dc0/rack1/node1",
        "leaf-dc0/rack1/node4",
    )
    plan = FaultPlan()
    for worker in zombies:
        plan.add(ZombieWindow(worker=worker, at=2.0, duration=21.0))
    harness.install(plan)
    job = harness.run(harness.Q_GROUP)
    assert job.status is SUCCEEDED, job.error
    manager = harness.cluster.cluster_manager
    harness.sim.run(until=22.0)  # sweep at t=20 declares the zombies dead
    assert sum(not manager.is_alive(w) for w in zombies) == len(zombies)
    harness.sim.run(until=32.0)  # beats resume after the window
    assert manager.readmissions >= len(zombies)
    after = harness.run(harness.Q_GROUP)
    assert after.status is SUCCEEDED, after.error
    harness.finish("zombie_readmission_storm")


def test_master_failover_under_load(harness, seed):
    """The primary master dies mid-query on a slightly lossy fabric: the
    in-flight job fails over to the client, the promoted master answers
    the resubmission exactly."""
    harness.install(
        FaultPlan().add(MessageDelay(extra_s=0.2, probability=0.3, at=0.0, duration=10.0))
    )
    job, done = harness.cluster.submit(harness.Q_GROUP)
    harness.sim.run(until=0.05)
    aborted = harness.cluster.fail_master()
    assert aborted >= 1
    harness.sim.run_until_complete(done)
    assert job.status is JobStatus.FAILED
    assert job.error is not None  # "resubmit the query"
    harness.monitor.check_job(job, sql=harness.Q_GROUP)
    retry = harness.run(harness.Q_GROUP)
    assert retry.status is SUCCEEDED, retry.error
    harness.finish("master_failover_under_load")


# -- storage scenarios -------------------------------------------------------


def test_cold_storage_stall_with_backups(seed):
    """Archival reads hit a 2.5s first-byte wall; speculative backups
    launch at the straggler deadline and the answer is still exact."""
    harness = make_harness(seed)
    rng = np.random.default_rng(11)
    n = 2000
    cold = {"f1": rng.integers(0, 50, n), "f2": rng.integers(0, 8, n)}
    harness.cluster.load_table(
        "F",
        Schema.of(f1=DataType.INT64, f2=DataType.INT64),
        cold,
        storage="fatman",
        block_rows=250,
    )
    harness.monitor.oracle.load("F", cold)
    harness.install(
        FaultPlan().add(
            StorageStall(system="fatman", at=0.0, duration=30.0, extra_first_byte_s=2.5)
        )
    )
    job = harness.run(
        "SELECT f2 AS k, COUNT(*) AS n FROM F GROUP BY k ORDER BY k",
        options=JobOptions(enable_backup=True),
    )
    assert job.status is SUCCEEDED, job.error
    assert job.stats.backups_launched >= 1
    assert any(r.kind == "storage_stall" for r in harness.injector.records)
    harness.finish("cold_storage_stall_with_backups")


def test_slow_disk_straggler(seed):
    """One leaf's devices degrade 10000x mid-run; the straggler deadline
    fires, a backup on a healthy replica holder wins the race."""
    harness = make_harness(seed, n_rows=40_000, block_rows=4_000)
    # node4 takes the most tasks under pressure-tie placement; slow only
    # it so its backups land on healthy leaves.
    harness.install(
        FaultPlan().add(
            SlowNode(worker="leaf-dc0/rack0/node4", at=0.0, duration=60.0, factor=10_000.0)
        )
    )
    job = harness.run(harness.Q_GROUP)
    assert job.status is SUCCEEDED, job.error
    assert job.stats.backups_launched >= 1
    harness.finish("slow_disk_straggler")
