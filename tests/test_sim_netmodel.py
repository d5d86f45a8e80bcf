"""Unit tests for the network topology and traffic classes."""

import pytest

from repro.errors import FeisuError
from repro.sim.events import Simulator
from repro.sim.netmodel import (
    CLASS_BANDWIDTH_SHARE,
    NetworkTopology,
    NodeAddress,
    TopologySpec,
    TrafficClass,
)


@pytest.fixture()
def net():
    sim = Simulator()
    return sim, NetworkTopology(sim, TopologySpec(datacenters=2, racks_per_datacenter=2, nodes_per_rack=3))


def test_topology_spec_counts():
    spec = TopologySpec(2, 3, 4)
    assert spec.total_nodes == 24
    assert len(spec.addresses()) == 24
    assert spec.addresses()[0] == NodeAddress(0, 0, 0)


def test_distance_hierarchy(net):
    _, topo = net
    a = NodeAddress(0, 0, 0)
    same_node = NodeAddress(0, 0, 0)
    same_rack = NodeAddress(0, 0, 1)
    same_dc = NodeAddress(0, 1, 0)
    other_dc = NodeAddress(1, 0, 0)
    assert topo.distance(a, same_node) == 0
    assert topo.distance(a, same_rack) < topo.distance(a, same_dc)
    assert topo.distance(a, same_dc) < topo.distance(a, other_dc)


def test_path_symmetric_in_length(net):
    _, topo = net
    a, b = NodeAddress(0, 0, 1), NodeAddress(1, 1, 2)
    assert len(topo.path(a, b)) == len(topo.path(b, a))


def test_invalid_address_rejected(net):
    _, topo = net
    with pytest.raises(FeisuError):
        topo.distance(NodeAddress(0, 0, 0), NodeAddress(9, 0, 0))


def test_local_transfer_is_instant(net):
    sim, topo = net
    ev = topo.transfer(NodeAddress(0, 0, 0), NodeAddress(0, 0, 0), 10**9)
    sim.run_until_complete(ev)
    assert sim.now == 0.0


def test_cross_dc_slower_than_same_rack(net):
    sim, topo = net
    a = NodeAddress(0, 0, 0)
    t_rack = topo.transfer_time_estimate(a, NodeAddress(0, 0, 1), 10**7)
    t_dc = topo.transfer_time_estimate(a, NodeAddress(1, 0, 0), 10**7)
    assert t_dc > t_rack


def test_read_class_gets_least_bandwidth(net):
    _, topo = net
    a, b = NodeAddress(0, 0, 0), NodeAddress(0, 1, 0)
    t_read = topo.transfer_time_estimate(a, b, 10**8, TrafficClass.READ)
    t_write = topo.transfer_time_estimate(a, b, 10**8, TrafficClass.WRITE)
    t_ctrl = topo.transfer_time_estimate(a, b, 10**8, TrafficClass.CONTROL)
    assert t_ctrl < t_write < t_read


def test_control_traffic_skips_data_queue(net):
    sim, topo = net
    a, b = NodeAddress(0, 0, 0), NodeAddress(0, 0, 1)
    # Saturate the ToR link with a large read.
    topo.transfer(a, b, 10**9, TrafficClass.READ)
    ctrl_done = []
    topo.transfer(a, b, 256, TrafficClass.CONTROL).add_callback(
        lambda e: ctrl_done.append(sim.now)
    )
    sim.run()
    # Control message completes in well under the data transfer's time.
    assert ctrl_done[0] < 0.01


def test_data_transfers_queue_on_shared_link(net):
    sim, topo = net
    a, b = NodeAddress(0, 0, 0), NodeAddress(0, 0, 1)
    ends = []
    topo.transfer(a, b, 10**7, TrafficClass.READ).add_callback(lambda e: ends.append(sim.now))
    topo.transfer(a, b, 10**7, TrafficClass.READ).add_callback(lambda e: ends.append(sim.now))
    sim.run()
    assert ends[1] >= 2 * (ends[0] - 0.001)  # second waited for the first


def test_class_shares_ordering():
    assert (
        CLASS_BANDWIDTH_SHARE[TrafficClass.CONTROL]
        > CLASS_BANDWIDTH_SHARE[TrafficClass.WRITE]
        > CLASS_BANDWIDTH_SHARE[TrafficClass.READ]
    )


def test_link_utilization_reporting(net):
    sim, topo = net
    a, b = NodeAddress(0, 0, 0), NodeAddress(0, 0, 1)
    topo.transfer(a, b, 10**7, TrafficClass.READ)
    sim.run()
    assert any(link.bytes_carried > 0 for link in topo.links())
    assert all(0.0 <= link.utilization() <= 1.0 for link in topo.links())


# -- memoised routes (S57) ----------------------------------------------------


def _transfer_before_s57(topo, src, dst, nbytes, cls):
    """``NetworkTopology._transfer`` as it was when every message rebuilt
    its link list and re-picked the bottleneck: the reference."""
    links = topo.path(src, dst)
    if not links:
        return topo.sim.timeout(0.0)
    bottleneck = min(links, key=lambda ln: ln.bandwidth_bps * CLASS_BANDWIDTH_SHARE[cls])
    # ``Link.occupy`` as it was: the bottleneck's queueing, priced apart.
    duration = nbytes / (bottleneck.bandwidth_bps * CLASS_BANDWIDTH_SHARE[cls])
    now = topo.sim.now
    bottleneck.bytes_carried += nbytes
    if cls is TrafficClass.CONTROL:
        delay = bottleneck.latency_s + duration
    else:
        start = max(now, bottleneck._free_at)  # noqa: SLF001
        end = start + duration
        bottleneck._free_at = end  # noqa: SLF001
        bottleneck.busy_time += duration
        delay = (end - now) + bottleneck.latency_s
    for link in links:
        if link is not bottleneck:
            delay += link.latency_s
            link.bytes_carried += nbytes
    return topo.sim.timeout(delay)


def _drive_every_route(transfer_of):
    """Every address pair x class of a 2-DC topology, three rounds: memo
    cold, memo warm with queues still busy, and with a node admitted
    after the memo is warm.  Returns completion times and link books."""
    spec = TopologySpec(datacenters=2, racks_per_datacenter=2, nodes_per_rack=2)
    sim = Simulator()
    topo = NetworkTopology(sim, spec)
    transfer = transfer_of(topo)
    finished = []

    def one_round(addresses, nbytes):
        for src in addresses:
            for dst in addresses:
                for cls in TrafficClass:
                    slot = len(finished)
                    finished.append(None)
                    transfer(src, dst, nbytes, cls).add_callback(
                        lambda _ev, slot=slot: finished.__setitem__(slot, sim.now)
                    )

    one_round(spec.addresses(), 10_000)
    sim.run(until=0.002)
    one_round(spec.addresses(), 777_777)
    newcomer = NodeAddress(1, 0, 7)
    topo.admit_node(newcomer)
    one_round(spec.addresses() + [newcomer], 31_337)
    sim.run()
    assert None not in finished
    return finished, [(ln.name, ln.bytes_carried, ln.busy_time) for ln in topo.links()]


def test_memoised_routes_equal_unmemoised_bit_for_bit():
    memoised = _drive_every_route(lambda topo: topo.transfer)
    reference = _drive_every_route(
        lambda topo: lambda *args: _transfer_before_s57(topo, *args)
    )
    assert memoised == reference  # floats compared exactly


def test_unknown_address_raises_on_first_use_and_is_not_memoised(net):
    _, topo = net
    inside, outside = NodeAddress(0, 0, 0), NodeAddress(0, 0, 9)
    for _ in range(2):
        with pytest.raises(FeisuError):
            topo.transfer(inside, outside, 100, TrafficClass.CONTROL)
        with pytest.raises(FeisuError):
            topo.transfer(outside, inside, 100, TrafficClass.READ)
    assert all(link.bytes_carried == 0 for link in topo.links())
    topo.admit_node(outside)  # once cabled up, the same pair routes
    topo.transfer(inside, outside, 100, TrafficClass.CONTROL)
    assert any(link.bytes_carried == 100 for link in topo.links())
