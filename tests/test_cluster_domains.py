"""Cross-domain directory: schema/rights replication across datacenters."""

import numpy as np
import pytest

from repro import FeisuCluster, FeisuConfig, Schema, DataType
from repro.cluster.domains import CrossDomainDirectory
from repro.sim.events import Simulator
from repro.sim.netmodel import NetworkTopology, TopologySpec


def _directory(datacenters=3, sync_period_s=30.0):
    sim = Simulator()
    net = NetworkTopology(sim, TopologySpec(datacenters, 2, 2))
    return sim, CrossDomainDirectory(sim, net, datacenters, sync_period_s=sync_period_s)


def test_home_datacenter_sees_updates_immediately():
    _sim, directory = _directory()
    directory.publish_table("T", {"a": "int64"})
    assert directory.lookup_table(0, "T") == {"a": "int64"}  # primary's dc
    assert directory.lookup_table(1, "T") is None  # remote: not yet synced
    assert directory.lag(1) == 1 and directory.lag(0) == 0


def test_sync_round_converges_all_replicas():
    sim, directory = _directory()
    directory.publish_table("T", {"a": "int64"})
    directory.publish_grant("u", "T")
    assert not directory.converged()
    shipped = sim.run_until_complete(sim.process(directory.sync_once()))
    assert shipped == 4  # 2 updates x 2 remote replicas
    assert directory.converged()
    assert directory.lookup_table(2, "T") == {"a": "int64"}
    assert directory.can_read(2, "u", "T")


def test_updates_apply_in_order_revoke_after_grant():
    sim, directory = _directory()
    directory.publish_grant("u", "T")
    directory.publish_revoke("u", "T")
    sim.run_until_complete(sim.process(directory.sync_once()))
    assert not directory.can_read(1, "u", "T")


def test_background_loop_converges():
    sim, directory = _directory(sync_period_s=10.0)
    directory.start()
    directory.publish_table("T", {"x": "string"})
    sim.run(until=25.0)
    assert directory.converged()
    assert directory.sync_rounds >= 2


def test_sync_charges_control_traffic():
    sim, directory = _directory()
    for i in range(10):
        directory.publish_table(f"T{i}", {"a": "int64"})
    net_links_before = 0
    sim.run_until_complete(sim.process(directory.sync_once()))
    total = sum(ln.bytes_carried for ln in directory.net.links())
    assert total >= 512 * 10  # per-update wire cost to remote dcs


def test_incremental_sync_only_ships_missing():
    sim, directory = _directory()
    directory.publish_table("A", {"a": "int64"})
    sim.run_until_complete(sim.process(directory.sync_once()))
    directory.publish_table("B", {"b": "int64"})
    shipped = sim.run_until_complete(sim.process(directory.sync_once()))
    assert shipped == 2  # only the new update, to the 2 remote dcs


def test_feisu_cluster_publishes_metadata():
    cluster = FeisuCluster(FeisuConfig(datacenters=2, racks_per_datacenter=2, nodes_per_rack=2))
    cluster.load_table(
        "T", Schema.of(a=DataType.INT64), {"a": np.arange(100)}, storage="storage-a"
    )
    cluster.create_user("geo", tables=["T"])
    directory = cluster.domain_directory
    # home dc sees everything immediately
    assert directory.lookup_table(0, "T") == {"a": "int64"}
    assert directory.can_read(0, "geo", "T")
    # remote dc converges after the sync period
    cluster.sim.run(until=cluster.sim.now + 2 * directory.period_s)
    assert directory.lookup_table(1, "T") == {"a": "int64"}
    assert directory.converged()
