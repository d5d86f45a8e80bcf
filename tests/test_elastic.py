"""Elastic membership + rebalancing (S55): the shared replica mover as
the rebalancer drives it, join/decommission lifecycle."""

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.cluster.elastic import ElasticConfig, Rebalancer
from repro.errors import FeisuError, StorageError
from repro.sim.events import Simulator
from repro.sim.netmodel import NetworkTopology, NodeAddress, TopologySpec
from repro.storage.maintenance import copy_replica, migrate_replica
from repro.storage.router import StorageRouter
from repro.storage.systems import DistributedFS


# -- the replica mover ----------------------------------------------------


def _env(**cfg_kwargs):
    sim = Simulator()
    spec = TopologySpec(1, 2, 4)
    net = NetworkTopology(sim, spec)
    nodes = spec.addresses()
    router = StorageRouter()
    fs = DistributedFS(nodes, seed=3)
    router.register(fs, default=True)
    reb = Rebalancer(sim, net, router, [fs], config=ElasticConfig(**cfg_kwargs))
    return sim, net, router, fs, reb


def _drive(sim, gen):
    return sim.run_until_complete(sim.process(gen))


def test_copy_replica_publishes_after_write_and_carries_variant():
    sim, net, router, fs, reb = _env()
    fs.write("/f", b"x" * 800)
    holders = fs.locations("/f")
    source = holders[0]
    variant = b"v" * 300
    fs.set_replica_variant("/f", source, variant, meta={"num_rows": 5})
    target = next(n for n in fs.nodes() if n not in holders)
    assert _drive(sim, copy_replica(net, fs, "/f", source, target)) == len(variant)
    assert target in fs.locations("/f")
    assert fs.replica_variant("/f", target) == variant
    assert fs.replica_meta("/f", target) == {"num_rows": 5}
    # Idempotent: a retry against an already-holding target is a no-op.
    assert _drive(sim, copy_replica(net, fs, "/f", source, target)) == 0


def test_migrate_block_moves_exactly_one_replica():
    sim, net, router, fs, reb = _env()
    fs.write("/f", b"x" * 800)
    holders = fs.locations("/f")
    source = holders[0]
    target = next(n for n in fs.nodes() if n not in holders)
    assert _drive(sim, migrate_replica(net, fs, "/f", source, target)) == 800
    after = fs.locations("/f")
    assert source not in after and target in after
    assert len(after) == len(holders)  # count never changed


def test_migrate_block_adopts_half_finished_attempt():
    """A migration killed between publish and source-retirement leaves
    the block over-replicated; the retry must finish by retiring the
    source alone instead of shipping the bytes again."""
    sim, net, router, fs, reb = _env()
    fs.write("/f", b"x" * 800)
    holders = fs.locations("/f")
    source = holders[0]
    target = next(n for n in fs.nodes() if n not in holders)
    fs.add_replica("/f", target)  # the published half of a dead attempt
    assert _drive(sim, migrate_replica(net, fs, "/f", source, target)) == 0  # adopted
    assert sum(ln.bytes_carried for ln in net.links()) == 0  # no second copy
    after = fs.locations("/f")
    assert source not in after and len(after) == len(holders)


def test_migrate_block_never_dips_below_floor():
    sim, net, router, fs, reb = _env()
    fs.write("/f", b"x" * 800)
    holders = fs.locations("/f")
    # At exactly the floor with the target already holding: adoption must
    # refuse to retire the source (that would drop below replication).
    source, target = holders[0], holders[1]
    assert _drive(sim, migrate_replica(net, fs, "/f", source, target)) is None
    assert set(fs.locations("/f")) == set(holders)


def test_evacuate_replica_rehomes_variant_to_survivor():
    sim, net, router, fs, reb = _env()
    fs.write("/f", b"x" * 800)
    holders = fs.locations("/f")
    leaving = holders[0]
    variant = b"v" * 200
    fs.set_replica_variant("/f", leaving, variant, meta={"num_rows": 2})
    # Over-replicated: survivors alone satisfy the floor.
    extra = next(n for n in fs.nodes() if n not in holders)
    fs.add_replica("/f", extra)
    assert _drive(sim, reb.evacuate_replica(fs, "/f", leaving))
    after = fs.locations("/f")
    assert leaving not in after and len(after) >= fs.replication
    # The variant the leaving node alone served survives on a survivor.
    assert any(fs.replica_variant("/f", n) == variant for n in after)
    assert reb.stats.evacuations == 1


def test_evacuate_replica_migrates_when_at_floor():
    sim, net, router, fs, reb = _env()
    fs.write("/f", b"x" * 800)
    holders = fs.locations("/f")
    leaving = holders[0]
    assert _drive(sim, reb.evacuate_replica(fs, "/f", leaving))
    after = fs.locations("/f")
    assert leaving not in after
    assert len(after) == fs.replication  # floor held throughout
    assert reb.stats.migrations == 1 and reb.stats.moved_bytes == 800


def test_run_once_splits_hot_domain_and_spreads_hot_blocks():
    sim, net, router, fs, reb = _env(spread_heat_threshold=1.5, max_spreads_per_cycle=4)
    for i in range(12):
        fs.write(f"/t/b{i}", b"x" * 400)
    hot = [f"/t/b{i}" for i in range(4)]
    for path in hot:
        full = router.full_path(fs, path)
        for _ in range(5):
            reb.heat.record(full, 400, now=0.0)
    replicas_before = len(fs.locations(hot[0]))
    _drive(sim, reb.run_once())
    assert reb.stats.spreads >= 1
    assert len(fs.locations(hot[0])) > replicas_before
    assert reb.stats.cycles == 1


def test_placement_ok_filters_spread_and_migration_targets():
    banned = set()
    sim = Simulator()
    spec = TopologySpec(1, 2, 4)
    net = NetworkTopology(sim, spec)
    router = StorageRouter()
    fs = DistributedFS(spec.addresses(), seed=3)
    router.register(fs, default=True)
    reb = Rebalancer(
        sim, net, router, [fs], config=ElasticConfig(),
        placement_ok=lambda n: n not in banned,
    )
    fs.write("/f", b"x" * 500)
    holders = fs.locations("/f")
    banned.update(n for n in fs.nodes() if n not in holders)
    assert reb._pick_target(fs, holders) is None  # noqa: SLF001
    banned.clear()
    assert reb._pick_target(fs, holders) is not None  # noqa: SLF001


# -- topology admission ---------------------------------------------------


def test_admit_node_extends_an_existing_rack():
    sim = Simulator()
    spec = TopologySpec(1, 2, 3)
    net = NetworkTopology(sim, spec)
    newcomer = NodeAddress(0, 1, 3)  # beyond nodes_per_rack
    with pytest.raises(FeisuError):
        net.distance(spec.addresses()[0], newcomer)
    net.admit_node(newcomer)
    assert net.distance(spec.addresses()[0], newcomer) > 0
    net.admit_node(newcomer)  # idempotent
    with pytest.raises(FeisuError):
        net.admit_node(NodeAddress(0, 9, 0))  # no such rack
    with pytest.raises(FeisuError):
        net.admit_node(NodeAddress(3, 0, 0))  # no such datacenter
    with pytest.raises(FeisuError):
        net.admit_node(NodeAddress(0, 0, -1))


# -- storage node pool ----------------------------------------------------


def test_storage_node_pool_add_remove():
    nodes = TopologySpec(1, 1, 3).addresses()
    fs = DistributedFS(nodes, seed=3)
    fs.write("/f", b"x" * 300)
    newcomer = NodeAddress(0, 0, 3)
    assert fs.add_node(newcomer)
    assert not fs.add_node(newcomer)  # already pooled
    assert newcomer in fs.nodes()
    holder = fs.locations("/f")[0]
    assert fs.held_paths(holder) == ["/f"]
    assert fs.bytes_on(holder) == 300
    assert fs.bytes_on(newcomer) == 0
    with pytest.raises(StorageError):
        fs.remove_node(holder)  # still holds a replica
    fs.drop_replica("/f", holder)
    fs.remove_node(holder)
    assert holder not in fs.nodes()
    with pytest.raises(StorageError):
        fs.remove_node(holder)  # not pooled any more


# -- cluster lifecycle ----------------------------------------------------

SCHEMA = Schema.of(c1=DataType.INT64, clicks=DataType.FLOAT64)


def _elastic_cluster(nodes_per_rack=3, n=1500, **elastic_kwargs):
    config = FeisuConfig(
        datacenters=1,
        racks_per_datacenter=2,
        nodes_per_rack=nodes_per_rack,
        enable_elastic=True,
        elastic=ElasticConfig(**elastic_kwargs) if elastic_kwargs else None,
    )
    cluster = FeisuCluster(config)
    rng = np.random.default_rng(5)
    cluster.load_table(
        "T",
        SCHEMA,
        {"c1": rng.integers(0, 100, n), "clicks": rng.random(n)},
        block_rows=250,
    )
    return cluster


def test_join_node_becomes_schedulable_and_pooled():
    cluster = _elastic_cluster()
    count_before = len(cluster.leaves)
    leaf = cluster.join_node()
    assert len(cluster.leaves) == count_before + 1
    assert leaf.address.node >= cluster.config.nodes_per_rack
    assert cluster.cluster_manager.is_alive(leaf.worker_id)
    assert cluster.scheduler.leaf_at(leaf.address) is leaf
    for system in cluster.router.systems():
        assert leaf.address in system.nodes()
    # The newcomer keeps heartbeating on the simulated clock.
    cluster.sim.run(until=cluster.sim.now + 30.0)
    cluster.cluster_manager.sweep()
    assert cluster.cluster_manager.is_alive(leaf.worker_id)
    assert cluster.query("SELECT COUNT(*) AS n FROM T").rows()[0][0] == 1500


def test_join_requires_elastic_flag():
    cluster = FeisuCluster(FeisuConfig(nodes_per_rack=2))
    with pytest.raises(FeisuError):
        cluster.join_node()
    with pytest.raises(FeisuError):
        cluster.decommission("leaf-dc0/rack0/node0")


def test_decommission_evacuates_everything_and_unregisters():
    cluster = _elastic_cluster()
    victim = next(
        leaf
        for leaf in cluster.leaves
        if cluster.storage_a.held_paths(leaf.address)
    )
    addr = victim.address
    done = cluster.decommission(victim.worker_id)
    cluster.sim.run_until_complete(done, limit=cluster.sim.now + 600.0)
    assert victim.retired and not victim.alive
    assert cluster.elastic.departed == [addr]
    for system in cluster.router.systems():
        assert addr not in system.nodes()
        assert all(addr not in system.locations(p) for p in system.list_paths())
    # Every block held its replication floor through the drain.
    for path in cluster.storage_a.list_paths():
        assert len(cluster.storage_a.locations(path)) >= cluster.storage_a.replication
    with pytest.raises(FeisuError):
        cluster.cluster_manager.is_alive(victim.worker_id)
    # The retired heartbeat loop exits instead of raising on the
    # unregistered id; answers are still complete and correct.
    cluster.sim.run(until=cluster.sim.now + 60.0)
    assert cluster.query("SELECT COUNT(*) AS n FROM T").rows()[0][0] == 1500


def test_scheduler_skips_draining_workers():
    cluster = _elastic_cluster()
    cluster.query("SELECT SUM(c1) AS s FROM T")
    victim = max(cluster.leaves, key=lambda l: l.tasks_completed)
    cluster.cluster_manager.start_drain(victim.worker_id)
    before = victim.tasks_completed
    cluster.query("SELECT SUM(c1) AS s FROM T")
    assert victim.tasks_completed == before  # no new placements
    cluster.cluster_manager.cancel_drain(victim.worker_id)
    cluster.query("SELECT SUM(c1) AS s FROM T")
    assert victim.tasks_completed > before  # back in rotation


def test_elastic_repairer_avoids_draining_targets():
    cluster = _elastic_cluster()
    cluster.cluster_manager.sweep()
    fs = cluster.storage_a
    path = fs.list_paths()[0]
    holders = fs.locations(path)
    outsider = next(
        leaf for leaf in cluster.leaves if leaf.address not in holders
    )
    # Drain every non-holder but one: repair has exactly one legal target.
    allowed = outsider.address
    for leaf in cluster.leaves:
        if leaf.address not in holders and leaf.address != allowed:
            cluster.cluster_manager.start_drain(leaf.worker_id)
    for node in holders[1:]:
        fs.drop_replica(path, node)
    repairer = next(r for r in cluster.elastic.repairers if r.system is fs)
    cluster.sim.run_until_complete(cluster.sim.process(repairer.repair_once()))
    restored = fs.locations(path)
    assert allowed in restored
    draining = {
        leaf.address
        for leaf in cluster.leaves
        if cluster.cluster_manager.is_draining(leaf.worker_id)
    }
    assert not draining.intersection(restored)
