"""Chaos: kills mid-migration, mid-drain and mid-repair (S55).

The rebalancer's block moves, the decommission drain and the replica
repairer all lean on the one publish-after-write copy.  A total WRITE-class drop window therefore
must leave *nothing* half-moved: no block lost, no holder double-counted,
no replica stranded on a node that already left — and once the fabric
heals, the retries finish the exact work the kill interrupted.
"""

import pytest

from repro.cluster.elastic import ElasticConfig
from repro.cluster.jobs import JobStatus
from repro.faults import FaultPlan, MessageDrop
from repro.sim.netmodel import NodeAddress, TrafficClass

from tests.chaos.conftest import DEFAULT_SEED, make_harness

pytestmark = pytest.mark.chaos

SUCCEEDED = JobStatus.SUCCEEDED


def _elastic_harness(seed, rebalance_period_s=30.0):
    harness = make_harness(
        seed,
        elastic=ElasticConfig(rebalance_period_s=rebalance_period_s),
    )
    monitor = harness.monitor
    cluster = harness.cluster
    monitor.expect_replication(cluster.storage_b)
    monitor.expect_no_departed(cluster.storage_a, lambda: cluster.elastic.departed)
    monitor.expect_no_departed(cluster.storage_b, lambda: cluster.elastic.departed)
    return harness


def test_kill_mid_migration_is_retried_not_double_counted(seed):
    """Kill every migration transfer for 60s: publish-after-write means a
    dead copy publishes nothing — the placement is exactly what it was,
    the floor holds, answers stay exact — and the post-window retry moves
    the block once (or adopts a published half), never twice."""
    harness = _elastic_harness(seed)
    cluster = harness.cluster
    reb = cluster.elastic.rebalancer
    storage = cluster.storage_a

    # T was written from dc0/rack1/node1: every block's first replica sits
    # there, so that node is byte-heavy and the balance planner has a
    # guaranteed migration to attempt inside the window.
    heavy = NodeAddress(0, 1, 1)
    assert storage.bytes_on(heavy) > 0
    harness.install(
        FaultPlan().add(
            MessageDrop(probability=1.0, cls=TrafficClass.WRITE, at=0.0, duration=60.0)
        )
    )

    job = harness.run(harness.Q_GROUP)
    assert job.status is SUCCEEDED, job.error
    placement_before = {
        p: sorted(map(str, storage.locations(p))) for p in storage.list_paths()
    }

    # Force a cycle inside the window: every spread/migration transfer
    # dies mid-flight and must leave no trace in the placement.
    harness.sim.run_until_complete(harness.sim.process(reb.run_once()))
    assert harness.sim.now < 60.0
    placement_during = {
        p: sorted(map(str, storage.locations(p))) for p in storage.list_paths()
    }
    assert placement_during == placement_before  # nothing half-moved
    if seed == DEFAULT_SEED:
        assert reb.stats.failed_migrations >= 1  # the window did bite
        assert reb.stats.migrations == 0 and reb.stats.spreads == 0
    during = harness.run(harness.Q_COUNT)
    assert during.status is SUCCEEDED, during.error

    # Fabric heals at t=60: the retry finishes the interrupted moves.
    harness.sim.run(until=65.0)
    harness.sim.run_until_complete(harness.sim.process(reb.run_once()))
    if seed == DEFAULT_SEED:
        assert reb.stats.migrations + reb.stats.adopted_migrations >= 1
    for path in storage.list_paths():
        locs = storage.locations(path)
        assert len(locs) >= storage.replication
        assert len(set(locs)) == len(locs)  # no double-counted holder
    after = harness.run(harness.Q_GROUP)
    assert after.status is SUCCEEDED, after.error
    harness.finish("kill_mid_migration")


def test_kill_mid_drain_blocks_departure_until_evacuated(seed):
    """Start a decommission inside the drop window: every evacuation copy
    dies mid-flight, so the drain must *wait* — the node stays registered
    and keeps its replicas (leaving early would strand blocks below the
    floor) — and once the fabric heals the retries evacuate everything
    and the departure completes with nothing left behind."""
    harness = _elastic_harness(seed)
    cluster = harness.cluster
    victim = cluster.leaf_at(NodeAddress(0, 1, 1))  # holds a T replica set
    harness.install(
        FaultPlan().add(
            MessageDrop(probability=1.0, cls=TrafficClass.WRITE, at=0.0, duration=60.0)
        )
    )

    job = harness.run(harness.Q_JOIN)
    assert job.status is SUCCEEDED, job.error
    done = cluster.decommission(victim.worker_id)

    # Deep inside the window the drain is alive but going nowhere: the
    # worker is draining (no new placements), still registered, and every
    # replica it holds is still exactly where it was.
    harness.sim.run(until=55.0)
    assert not done.triggered
    assert cluster.cluster_manager.is_draining(victim.worker_id)
    assert cluster.cluster_manager.is_alive(victim.worker_id)
    assert cluster.storage_a.held_paths(victim.address)
    if seed == DEFAULT_SEED:
        assert cluster.elastic.rebalancer.stats.failed_migrations >= 1
    during = harness.run(harness.Q_COUNT)
    assert during.status is SUCCEEDED, during.error

    # Fabric heals: the poll loop's retries drain the node dry and the
    # departure completes.
    harness.sim.run_until_complete(done, limit=harness.sim.now + 600.0)
    assert victim.retired
    assert cluster.elastic.departed == [victim.address]
    for system in cluster.router.systems():
        assert victim.address not in system.nodes()
    with pytest.raises(Exception):
        cluster.cluster_manager.is_alive(victim.worker_id)
    after = harness.run(harness.Q_GROUP)
    assert after.status is SUCCEEDED, after.error
    # finish() runs the full invariant sweep: replication floor, no
    # double-counted holder, and — via expect_no_departed — no placement
    # still referencing the departed node.
    harness.finish("kill_mid_drain")


def test_kill_mid_repair_is_retried(seed):
    """Lose one replica, then kill every WRITE transfer for 90s: the repair
    scan at t=60 dies mid-copy and publishes nothing, and the repairer must
    outlive it — the first scan after the fabric heals restores the floor
    (a repairer whose loop died with its copy never repaired again)."""
    # No rebalancer cycle: a balancing copy must not restore the floor for it.
    harness = _elastic_harness(seed, rebalance_period_s=1e9)
    cluster = harness.cluster
    storage = cluster.storage_a
    repairer = next(r for r in cluster.elastic.repairers if r.system is storage)
    path = storage.list_paths()[0]
    storage.drop_replica(path, storage.locations(path)[-1])
    harness.install(
        FaultPlan().add(
            MessageDrop(probability=1.0, cls=TrafficClass.WRITE, at=0.0, duration=90.0)
        )
    )
    job = harness.run(harness.Q_GROUP)
    assert job.status is SUCCEEDED, job.error

    # The in-window scan died mid-copy: nothing published, nothing counted.
    harness.sim.run(until=85.0)
    assert len(storage.locations(path)) == storage.replication - 1
    assert repairer.total_repairs == 0

    # Fabric heals at t=90: the scan at t=120 repairs exactly the lost copy.
    harness.sim.run(until=150.0)
    locs = storage.locations(path)
    assert len(locs) == storage.replication and len(set(locs)) == len(locs)
    assert repairer.total_repairs >= 1
    after = harness.run(harness.Q_GROUP)
    assert after.status is SUCCEEDED, after.error
    harness.finish("kill_mid_repair")
