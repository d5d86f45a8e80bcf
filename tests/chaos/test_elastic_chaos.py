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

#: T was written from dc0/rack1/node1: every block's first replica sits
#: there, so that node is byte-heavy (the balance planner has a guaranteed
#: migration to attempt inside the window) and holds a T replica set (the
#: drain has something to evacuate).
HEAVY = NodeAddress(0, 1, 1)


def _placement(storage):
    return {p: sorted(map(str, storage.locations(p))) for p in storage.list_paths()}


def _succeeds(harness, query):
    job = harness.run(query)
    assert job.status is SUCCEEDED, job.error


def _kill_writes(harness, window_s, first_query):
    """Drop every WRITE transfer for ``window_s`` from t=0, then run a query."""
    harness.install(
        FaultPlan().add(
            MessageDrop(probability=1.0, cls=TrafficClass.WRITE, at=0.0, duration=window_s)
        )
    )
    _succeeds(harness, first_query)


def _migration(harness, seed):
    """A dead copy publishes nothing — the placement is exactly what it
    was, the floor holds, answers stay exact — and the post-window retry
    moves the block once (or adopts a published half), never twice."""
    reb = harness.cluster.elastic.rebalancer
    storage = harness.cluster.storage_a
    assert storage.bytes_on(HEAVY) > 0
    _kill_writes(harness, 60.0, harness.Q_GROUP)
    # Force a cycle inside the window: every spread/migration transfer
    # dies mid-flight and must leave no trace in the placement.
    placement_before = _placement(storage)
    harness.sim.run_until_complete(harness.sim.process(reb.run_once()))
    assert harness.sim.now < 60.0
    assert _placement(storage) == placement_before  # nothing half-moved
    if seed == DEFAULT_SEED:
        assert reb.stats.failed_migrations >= 1  # the window did bite
        assert reb.stats.migrations == 0 and reb.stats.spreads == 0
    _succeeds(harness, harness.Q_COUNT)

    # The fabric heals: the retry finishes the interrupted move.
    harness.sim.run(until=65.0)
    harness.sim.run_until_complete(harness.sim.process(reb.run_once()))
    if seed == DEFAULT_SEED:
        assert reb.stats.migrations + reb.stats.adopted_migrations >= 1
    for path in storage.list_paths():
        locs = storage.locations(path)
        assert len(locs) >= storage.replication
        assert len(set(locs)) == len(locs)  # no double-counted holder


def _drain(harness, seed):
    """A decommission started inside the window must *wait* — the node
    stays registered and keeps its replicas (leaving early would strand
    blocks below the floor) — and once the fabric heals the retries
    evacuate everything and the departure completes with nothing left
    behind."""
    cluster = harness.cluster
    storage = cluster.storage_a
    victim = cluster.leaf_at(HEAVY)
    _kill_writes(harness, 60.0, harness.Q_JOIN)
    # Deep inside the window the drain is alive but going nowhere: the
    # worker is draining (no new placements), still registered, and
    # every replica it holds is still exactly where it was.
    done = cluster.decommission(victim.worker_id)
    harness.sim.run(until=55.0)
    assert not done.triggered
    assert cluster.cluster_manager.is_draining(victim.worker_id)
    assert cluster.cluster_manager.is_alive(victim.worker_id)
    assert storage.held_paths(victim.address)
    if seed == DEFAULT_SEED:
        assert cluster.elastic.rebalancer.stats.failed_migrations >= 1
    _succeeds(harness, harness.Q_COUNT)

    # The fabric heals: the poll loop's retries drain the node dry and
    # the departure completes.
    harness.sim.run_until_complete(done, limit=harness.sim.now + 600.0)
    assert victim.retired
    assert cluster.elastic.departed == [victim.address]
    for system in cluster.router.systems():
        assert victim.address not in system.nodes()
    with pytest.raises(Exception):
        cluster.cluster_manager.is_alive(victim.worker_id)


def _repair(harness, seed):
    """With one replica lost, the repair scan at t=60 dies mid-copy and
    publishes nothing, and the repairer must outlive it — the first scan
    after the fabric heals restores the floor (a repairer whose loop died
    with its copy never repaired again)."""
    storage = harness.cluster.storage_a
    repairer = next(r for r in harness.cluster.elastic.repairers if r.system is storage)
    path = storage.list_paths()[0]
    storage.drop_replica(path, storage.locations(path)[-1])
    _kill_writes(harness, 90.0, harness.Q_GROUP)
    # The in-window scan died mid-copy: nothing published, nothing counted.
    harness.sim.run(until=85.0)
    assert len(storage.locations(path)) == storage.replication - 1
    assert repairer.total_repairs == 0

    # The fabric heals: the scan at t=120 repairs exactly the lost copy.
    harness.sim.run(until=150.0)
    locs = storage.locations(path)
    assert len(locs) == storage.replication and len(set(locs)) == len(locs)
    assert repairer.total_repairs >= 1


#: move -> (scenario, rebalance period in s).  The repair runs no
#: rebalancer cycle: a balancing copy must not restore the floor for it.
MOVES = {
    "migration": (_migration, 30.0),
    "drain": (_drain, 30.0),
    "repair": (_repair, 1e9),
}


@pytest.mark.parametrize("move", list(MOVES))
def test_kill_mid_move_is_retried_and_leaves_nothing_half_moved(seed, move):
    """Kill every WRITE transfer for a window, then heal the fabric."""
    scenario, rebalance_period_s = MOVES[move]
    harness = make_harness(seed, elastic=ElasticConfig(rebalance_period_s=rebalance_period_s))
    cluster = harness.cluster
    harness.monitor.expect_replication(cluster.storage_b)
    for system in (cluster.storage_a, cluster.storage_b):
        harness.monitor.expect_no_departed(system, lambda: cluster.elastic.departed)
    scenario(harness, seed)
    _succeeds(harness, harness.Q_GROUP)
    # finish() runs the full invariant sweep: replication floor, no
    # double-counted holder, and — via expect_no_departed — no placement
    # still referencing the departed node.
    harness.finish(f"kill_mid_{move}")
