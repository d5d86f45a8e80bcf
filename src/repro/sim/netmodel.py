"""Cluster network model: geo-distributed datacenters, racks, nodes.

The paper's deployment spans six data centers whose nodes talk over
1 Gbps Ethernet, with strict traffic-class priorities (§V-C): control and
state flow first, write data flow second, read data flow last, enforced
in production via switch TOS flags.  This module reproduces that with a
flow-level model:

* topology is a tree: node — top-of-rack link — datacenter core — WAN;
* every link is a FIFO-serialized :class:`Link`;
* a transfer queues on its *bottleneck* link and pays propagation latency
  for the remaining hops (standard flow-level approximation);
  :meth:`NetworkTopology.transfer` prices the bottleneck itself and arms
  its completion event directly, so a :class:`Link` is plain state
  (bandwidth, latency, the time its data queue frees, counters) with no
  method on the hop path;
* control-class messages ride the reserved bandwidth and skip data
  queues, mirroring the TOS reservation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import FeisuError
from repro.sim.events import Event, Simulator
from repro.sim.resources import MB


class TrafficClass(enum.IntEnum):
    """Priority classes from §V-C, highest priority first."""

    CONTROL = 0
    WRITE = 1
    READ = 2


#: Fraction of link bandwidth available to each class once the reserved
#: control share is carved out.  Read flow is cheapest / lowest priority.
CLASS_BANDWIDTH_SHARE = {
    TrafficClass.CONTROL: 1.0,
    TrafficClass.WRITE: 0.9,
    TrafficClass.READ: 0.7,
}

TOR_BANDWIDTH_BPS = 125 * MB        # 1 Gbps node uplink
CORE_BANDWIDTH_BPS = 1250 * MB      # 10 Gbps rack uplink
WAN_BANDWIDTH_BPS = 250 * MB        # 2 Gbps inter-datacenter
TOR_LATENCY_S = 1e-4
CORE_LATENCY_S = 4e-4
WAN_LATENCY_S = 5e-3


class Link:
    """One duplex link with FIFO data queue and a reserved control lane."""

    def __init__(self, sim: Simulator, name: str, bandwidth_bps: float, latency_s: float):
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self._free_at = 0.0
        self.bytes_carried = 0
        self.busy_time = 0.0

    def queue_delay(self) -> float:
        return max(0.0, self._free_at - self.sim.now)

    def utilization(self) -> float:
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.sim.now)


class NodeAddress(NamedTuple):
    """Position of a node in the datacenter/rack tree.

    A named tuple, so hashing and comparing one runs in C: addresses key
    the routes, the replica maps and the leaf registry, and are compared
    on every hop.  Its hash is ``hash((datacenter, rack, node))``, which
    is what a frozen dataclass of these fields hashed to, so sets and
    dicts keyed by addresses keep their iteration order.
    """

    datacenter: int
    rack: int
    node: int

    def __str__(self) -> str:
        return f"dc{self.datacenter}/rack{self.rack}/node{self.node}"


@dataclass
class TopologySpec:
    """Shape of the simulated cluster."""

    datacenters: int = 1
    racks_per_datacenter: int = 4
    nodes_per_rack: int = 16

    @property
    def total_nodes(self) -> int:
        return self.datacenters * self.racks_per_datacenter * self.nodes_per_rack

    def addresses(self) -> List[NodeAddress]:
        return [
            NodeAddress(d, r, n)
            for d in range(self.datacenters)
            for r in range(self.racks_per_datacenter)
            for n in range(self.nodes_per_rack)
        ]


class NetworkTopology:
    """Tree-structured network with per-link queueing.

    The scheduler consults :meth:`distance` (hop count) for "low network
    transfer overhead" placement (§III-B); data movement goes through
    :meth:`transfer`, which advances the simulated clock appropriately.
    """

    def __init__(self, sim: Simulator, spec: TopologySpec):
        self.sim = sim
        self.spec = spec
        self._tor: Dict[Tuple[int, int], Link] = {}
        self._core: Dict[int, Link] = {}
        self._wan: Dict[Tuple[int, int], Link] = {}
        #: Nodes admitted after boot (S55 elastic join).  Links are
        #: per-rack/per-datacenter, not per-node, so a node joining an
        #: existing rack shares that rack's ToR — no new Link objects.
        self._admitted: set = set()
        #: Per traffic class, ``(src, dst)`` → the bottleneck link and the
        #: other links in path order (``(None, ())`` for a node-local
        #: pair).  Filled on first use, which is also where addresses are
        #: validated; never invalidated, because link bandwidths are
        #: fixed at construction and a joining node adds no link.
        self._routes: List[Dict[tuple, Tuple[Optional[Link], Tuple[Link, ...]]]] = [
            {} for _ in TrafficClass
        ]
        for d in range(spec.datacenters):
            self._core[d] = Link(sim, f"core-dc{d}", CORE_BANDWIDTH_BPS, CORE_LATENCY_S)
            for r in range(spec.racks_per_datacenter):
                self._tor[(d, r)] = Link(
                    sim, f"tor-dc{d}-rack{r}", TOR_BANDWIDTH_BPS, TOR_LATENCY_S
                )
        for a in range(spec.datacenters):
            for b in range(a + 1, spec.datacenters):
                self._wan[(a, b)] = Link(sim, f"wan-{a}-{b}", WAN_BANDWIDTH_BPS, WAN_LATENCY_S)

    # -- path computation ----------------------------------------------

    def admit_node(self, addr: NodeAddress) -> None:
        """Cable up a node joining after boot (S55 elastic join).

        The rack and datacenter must already exist — the ToR and core
        links are physical — but the node index may exceed the boot
        spec's ``nodes_per_rack``.  Idempotent."""
        rack_ok = (
            0 <= addr.datacenter < self.spec.datacenters
            and 0 <= addr.rack < self.spec.racks_per_datacenter
            and addr.node >= 0
        )
        if not rack_ok:
            raise FeisuError(
                f"cannot admit {addr}: no such rack in topology {self.spec}"
            )
        self._admitted.add(addr)

    def _validate(self, addr: NodeAddress) -> None:
        if addr in self._admitted:
            return
        ok = (
            0 <= addr.datacenter < self.spec.datacenters
            and 0 <= addr.rack < self.spec.racks_per_datacenter
            and 0 <= addr.node < self.spec.nodes_per_rack
        )
        if not ok:
            raise FeisuError(f"address {addr} outside topology {self.spec}")

    def path(self, src: NodeAddress, dst: NodeAddress) -> List[Link]:
        """Links crossed from ``src`` to ``dst`` (empty for same node)."""
        self._validate(src)
        self._validate(dst)
        if src == dst:
            return []
        links: List[Link] = [self._tor[(src.datacenter, src.rack)]]
        if (src.datacenter, src.rack) == (dst.datacenter, dst.rack):
            return links  # one shared ToR switch
        links.append(self._core[src.datacenter])
        if src.datacenter != dst.datacenter:
            a, b = sorted((src.datacenter, dst.datacenter))
            links.append(self._wan[(a, b)])
            links.append(self._core[dst.datacenter])
        links.append(self._tor[(dst.datacenter, dst.rack)])
        return links

    def distance(self, src: NodeAddress, dst: NodeAddress) -> int:
        """Hop count — the scheduler's network-cost proxy."""
        return len(self.path(src, dst))

    # -- data movement ---------------------------------------------------

    def transfer(
        self,
        src: NodeAddress,
        dst: NodeAddress,
        nbytes: int,
        cls: TrafficClass = TrafficClass.READ,
    ) -> Event:
        """Move ``nbytes`` (an int, at least 1) from ``src`` to ``dst``;
        completion event.

        The transfer queues on its bottleneck link and pays propagation
        latency on the rest of the path.  A node-local pair crosses no
        link and completes after a zero delay, but is still an event: the
        caller decides whether a hop between co-located roles is a
        message at all (``repro.cluster.messages``).  This is the fault
        layer's RPC interception point: an installed
        :class:`~repro.faults.injector.FaultInjector` replaces this
        method on the instance, so every message may be dropped, delayed
        or duplicated per the active plan.
        """
        routes = self._routes[cls]
        route = routes.get((src, dst))
        if route is None:
            route = routes[(src, dst)] = self._route(src, dst, cls)
        bottleneck, others = route
        sim = self.sim
        if bottleneck is None:
            return Event(sim, "local-transfer", 0.0)
        # Reserve the bottleneck.  Control traffic bypasses the data queue
        # (reserved bandwidth); write/read traffic queues FIFO behind
        # earlier data transfers.
        duration = nbytes / (bottleneck.bandwidth_bps * CLASS_BANDWIDTH_SHARE[cls])
        bottleneck.bytes_carried += nbytes
        if cls is TrafficClass.CONTROL:
            delay = bottleneck.latency_s + duration
        else:
            now = sim.now
            free_at = bottleneck._free_at
            end = (now if now >= free_at else free_at) + duration
            bottleneck._free_at = end
            bottleneck.busy_time += duration
            delay = (end - now) + bottleneck.latency_s
        for link in others:
            delay += link.latency_s
            link.bytes_carried += nbytes  # volume accounting on the full path
        return Event(sim, "xfer", delay)

    def _route(
        self, src: NodeAddress, dst: NodeAddress, cls: TrafficClass
    ) -> Tuple[Optional[Link], Tuple[Link, ...]]:
        links = self.path(src, dst)
        if not links:
            return None, ()
        bottleneck = min(links, key=lambda ln: ln.bandwidth_bps * CLASS_BANDWIDTH_SHARE[cls])
        return bottleneck, tuple(ln for ln in links if ln is not bottleneck)

    def transfer_time_estimate(
        self, src: NodeAddress, dst: NodeAddress, nbytes: int, cls: TrafficClass = TrafficClass.READ
    ) -> float:
        """Queue-free estimate used by the cost-based scheduler."""
        links = self.path(src, dst)
        if not links:
            return 0.0
        bottleneck = min(links, key=lambda ln: ln.bandwidth_bps * CLASS_BANDWIDTH_SHARE[cls])
        return sum(ln.latency_s for ln in links) + nbytes / (
            bottleneck.bandwidth_bps * CLASS_BANDWIDTH_SHARE[cls]
        )

    def links(self) -> List[Link]:
        """All links, for utilization reporting."""
        return list(self._tor.values()) + list(self._core.values()) + list(self._wan.values())
