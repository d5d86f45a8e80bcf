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
* control-class messages ride the reserved bandwidth and skip data
  queues, mirroring the TOS reservation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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

    def transfer_duration(self, nbytes: int, cls: TrafficClass) -> float:
        share = CLASS_BANDWIDTH_SHARE[cls]
        return nbytes / (self.bandwidth_bps * share)

    def occupy(self, nbytes: int, cls: TrafficClass) -> float:
        """Reserve the link for a transfer; returns completion delay from now.

        Control traffic bypasses the data queue (reserved bandwidth);
        write/read traffic queues FIFO behind earlier data transfers.
        """
        duration = self.transfer_duration(nbytes, cls)
        now = self.sim.now
        self.bytes_carried += nbytes
        if cls is TrafficClass.CONTROL:
            return self.latency_s + duration
        start = max(now, self._free_at)
        end = start + duration
        self._free_at = end
        self.busy_time += duration
        return (end - now) + self.latency_s

    def queue_delay(self) -> float:
        return max(0.0, self._free_at - self.sim.now)

    def utilization(self) -> float:
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.sim.now)


@dataclass(frozen=True)
class NodeAddress:
    """Position of a node in the datacenter/rack tree."""

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
        #: Installed :class:`~repro.faults.injector.FaultInjector`, or
        #: None — the default — in which case no fault code runs at all.
        self.faults = None
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
        """Move ``nbytes`` from ``src`` to ``dst``; completion event.

        The transfer queues on its bottleneck link and pays propagation
        latency on the rest of the path.  This is the fault layer's RPC
        interception point: with an injector installed, every message may
        be dropped, delayed or duplicated per the active plan.
        """
        if self.faults is not None:
            return self.faults.intercept_transfer(self, src, dst, nbytes, cls)
        return self._transfer(src, dst, nbytes, cls)

    def _transfer(
        self,
        src: NodeAddress,
        dst: NodeAddress,
        nbytes: int,
        cls: TrafficClass = TrafficClass.READ,
    ) -> Event:
        routes = self._routes[cls]
        route = routes.get((src, dst))
        if route is None:
            route = routes[(src, dst)] = self._route(src, dst, cls)
        bottleneck, others = route
        if bottleneck is None:
            return self.sim.timeout(0.0, name="local-transfer")
        delay = bottleneck.occupy(nbytes, cls)
        for link in others:
            delay += link.latency_s
            link.bytes_carried += nbytes  # volume accounting on the full path
        return self.sim.timeout(delay, name="xfer")

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
        return sum(ln.latency_s for ln in links) + bottleneck.transfer_duration(nbytes, cls)

    def links(self) -> List[Link]:
        """All links, for utilization reporting."""
        return list(self._tor.values()) + list(self._core.values()) + list(self._wan.values())
