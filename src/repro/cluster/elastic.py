"""Elastic cluster membership and rebalancing (S55).

§VII recounts a fleet that grew past five and then eight thousand
workers without downtime; until now the simulated cluster was a fixed
node set from boot.  This module closes ROADMAP item #5 with two
cooperating pieces:

* **Join/decommission on the simulated clock.**  A joining node is
  cabled into an existing rack (:meth:`NetworkTopology.admit_node`),
  admitted to every storage system's placement pool, and brought up as a
  registering, heartbeating :class:`~repro.cluster.node.LeafServer`.  A
  decommission *drains*: the :class:`~repro.cluster.membership.ClusterManager`
  marks the worker draining (the scheduler stops placing on it), its
  replicas are evacuated with publish-after-write copies, running tasks finish, and only then does
  the worker unregister and leave every placement pool.

* **A Rebalancer daemon.**  Per managed storage system it spreads hot
  blocks' replicas (heat from the :class:`HeatTracker` every leaf
  records its reads in) onto idle eligible nodes and migrates bytes off
  overloaded nodes.  Every move goes through the
  replica mover of :mod:`repro.storage.maintenance` — publish-after-write
  and idempotent, so a migration killed mid-flight is retried or
  adopted, never double-counted.

Everything is gated behind ``FeisuConfig.elastic`` — ``None`` (the
default) constructs nothing, adds no simulation events, and leaves the
committed figure results byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.errors import ClusterStateError, FaultInjectedError, FeisuError
from repro.sim.events import Event, Process, Simulator
from repro.sim.netmodel import NetworkTopology, NodeAddress
from repro.storage.base import StorageSystem
from repro.storage.maintenance import (
    ReplicaRepairer,
    copy_replica,
    migrate_replica,
    retire_replica,
)
from repro.storage.router import StorageRouter

__all__ = [
    "ElasticConfig",
    "ElasticityManager",
    "HeatRecord",
    "HeatTracker",
    "Rebalancer",
    "RebalanceStats",
]


#: Byte-imbalance ratio (heaviest vs. lightest node) tolerated before a
#: balancing migration moves a block.
BALANCE_TOLERANCE = 0.5


@dataclass
class HeatRecord:
    """Decayed access mass of one full path."""

    mass: float = 0.0
    last_access_s: float = 0.0

    def decayed(self, now: float, half_life_s: float) -> float:
        age = max(0.0, now - self.last_access_s)
        return self.mass * math.pow(0.5, age / half_life_s)


class HeatTracker:
    """Per-path exponentially-decayed access heat.

    Each access adds one unit of mass; mass halves every
    ``half_life_s`` simulated seconds, so heat blends frequency and
    recency.  The tracker never touches the simulator — callers pass
    ``now`` in.
    """

    def __init__(self, half_life_s: float = 120.0):
        if half_life_s <= 0:
            raise ValueError("half_life_s must be positive")
        self.half_life_s = half_life_s
        self._records: Dict[str, HeatRecord] = {}

    def record(self, path: str, now: float) -> None:
        rec = self._records.get(path)
        if rec is None:
            rec = self._records[path] = HeatRecord()
        rec.mass = rec.decayed(now, self.half_life_s) + 1.0
        rec.last_access_s = now

    def heat(self, path: str, now: float) -> float:
        rec = self._records.get(path)
        return rec.decayed(now, self.half_life_s) if rec is not None else 0.0


@dataclass
class ElasticConfig:
    """Policy knobs for the elastic subsystem."""

    #: Rebalancer wakeup period, simulated seconds.
    rebalance_period_s: float = 30.0
    #: Minimum per-path heat before replica spreading considers it.
    spread_heat_threshold: float = 1.5
    #: Extra replicas a hot path may gain over the system's target.
    spread_max_extra: int = 2
    #: Copies per cycle caps (spreads serve latency, migrations balance
    #: bytes; both are bounded so a cycle never floods the fabric).
    max_spreads_per_cycle: int = 8
    max_migrations_per_cycle: int = 2
    #: Drain loop poll period while a decommission waits for running
    #: tasks and retried evacuations.
    drain_poll_s: float = 2.0


@dataclass
class RebalanceStats:
    cycles: int = 0
    #: Copies that grew a hot path's replica set (no source drop).
    spreads: int = 0
    #: Completed copy-then-retire block moves.
    migrations: int = 0
    #: Moves finished by adopting a prior attempt's published copy.
    adopted_migrations: int = 0
    #: Transfers killed mid-flight by the fault layer.
    failed_migrations: int = 0
    #: Replicas taken off draining nodes.
    evacuations: int = 0
    moved_bytes: int = 0


class Rebalancer:
    """Hot-replica spreading and byte-balancing block migration.

    Every copy goes through :func:`~repro.storage.maintenance.copy_replica`
    — ship bytes first, publish the replica only after the transfer
    lands and only if the block was not rewritten meanwhile, retire the
    source replica last — so a kill at
    any point leaves the placement at or above where it started, and the
    retry either redoes the copy or adopts the published half of a
    previous attempt.
    """

    def __init__(
        self,
        sim: Simulator,
        net: NetworkTopology,
        router: StorageRouter,
        systems: List[StorageSystem],
        config: Optional[ElasticConfig] = None,
        placement_ok: Optional[Callable[[NodeAddress], bool]] = None,
    ):
        self.sim = sim
        self.net = net
        self.router = router
        self.systems = list(systems)
        self.config = config if config is not None else ElasticConfig()
        self.period_s = self.config.rebalance_period_s
        #: What leaves record their reads in (``FeisuCluster.wire_leaf``).
        self.heat = HeatTracker()
        self.placement_ok = placement_ok
        self.stats = RebalanceStats()
        self._process: Optional[Process] = None

    def start(self) -> None:
        if self._process is None:
            self._process = self.sim.every(self, self.run_once, "rebalancer", "rebalance-cycle")

    # -- one decision cycle ----------------------------------------------

    def run_once(self) -> Generator[Event, None, None]:
        now = self.sim.now
        self.stats.cycles += 1
        for system in self.systems:
            yield from self._rebalance_system(system, now)

    def _eligible(self, addr: NodeAddress) -> bool:
        return self.placement_ok is None or self.placement_ok(addr)

    def _eligible_nodes(self, system: StorageSystem) -> List[NodeAddress]:
        return [n for n in system.nodes() if self._eligible(n)]

    def _node_key(self, addr: NodeAddress) -> Tuple[int, int, int]:
        return (addr.datacenter, addr.rack, addr.node)

    def _pick_target(
        self, system: StorageSystem, holders: List[NodeAddress]
    ) -> Optional[NodeAddress]:
        """Least-loaded eligible node not already holding the block."""
        held = set(holders)
        pool = [n for n in self._eligible_nodes(system) if n not in held]
        if not pool:
            return None
        return min(pool, key=lambda n: (system.bytes_on(n), self._node_key(n)))

    def _rebalance_system(
        self, system: StorageSystem, now: float
    ) -> Generator[Event, None, None]:
        cfg = self.config
        inners = system.list_paths()
        heat_of = {p: self.heat.heat(self.router.full_path(system, p), now) for p in inners}

        # -- replica spreading: hot blocks fan out to idle nodes ----------
        target_replication = getattr(system, "replication", 1)
        hot_paths = sorted(
            (p for p in inners if heat_of[p] >= cfg.spread_heat_threshold),
            key=lambda p: (-heat_of[p], p),
        )
        spreads = 0
        for inner in hot_paths:
            if spreads >= cfg.max_spreads_per_cycle:
                break
            holders = system.locations(inner)
            if len(holders) >= target_replication + cfg.spread_max_extra:
                continue
            target = self._pick_target(system, holders)
            if target is None:
                continue
            source = min(holders, key=lambda h: self.net.distance(h, target))
            try:
                shipped = yield from copy_replica(self.net, system, inner, source, target)
            except FaultInjectedError:
                self.stats.failed_migrations += 1
                continue
            if shipped:
                spreads += 1
                self.stats.spreads += 1
                self.stats.moved_bytes += shipped

        # -- byte balancing: migrate off the heaviest node ----------------
        for _ in range(cfg.max_migrations_per_cycle):
            plan = self._plan_balance(system)
            if plan is None:
                break
            try:
                yield from self._migrate(system, *plan)
            except FaultInjectedError:
                self.stats.failed_migrations += 1
                break

    def _plan_balance(
        self, system: StorageSystem
    ) -> Optional[Tuple[str, NodeAddress, NodeAddress]]:
        nodes = self._eligible_nodes(system)
        if len(nodes) < 2:
            return None
        loads = {n: system.bytes_on(n) for n in nodes}
        heavy = max(nodes, key=lambda n: (loads[n], self._node_key(n)))
        light = min(nodes, key=lambda n: (loads[n], self._node_key(n)))
        if loads[heavy] <= 0:
            return None
        if loads[heavy] - loads[light] <= BALANCE_TOLERANCE * loads[heavy]:
            return None
        candidates = [
            p for p in system.held_paths(heavy) if light not in system.locations(p)
        ]
        if not candidates:
            return None
        inner = max(candidates, key=lambda p: (system.size(p), p))
        return inner, heavy, light

    def _migrate(
        self,
        system: StorageSystem,
        inner: str,
        source: NodeAddress,
        target: NodeAddress,
    ) -> Generator[Event, None, bool]:
        """One counted :func:`~repro.storage.maintenance.migrate_replica`."""
        shipped = yield from migrate_replica(self.net, system, inner, source, target)
        if shipped is None:
            return False
        if shipped:
            self.stats.migrations += 1
            self.stats.moved_bytes += shipped
        else:
            self.stats.adopted_migrations += 1
        return True

    def evacuate_replica(
        self, system: StorageSystem, inner: str, node: NodeAddress
    ) -> Generator[Event, None, bool]:
        """Take ``node``'s replica of ``inner`` off it (drain support).

        When enough copies already live elsewhere the replica is simply
        retired.  Otherwise a full publish-after-write migration runs
        first.
        """
        if not system.exists(inner):
            return True
        holders = system.locations(inner)
        if node not in holders:
            return True
        if len(holders) > getattr(system, "replication", 1):
            evacuated = retire_replica(system, inner, node)
            if evacuated:
                self.stats.evacuations += 1
            return evacuated
        target = self._pick_target(system, holders)
        if target is None:
            return False  # nowhere eligible yet; the drain loop retries
        done = yield from self._migrate(system, inner, node, target)
        if done:
            self.stats.evacuations += 1
        return done


class ElasticityManager:
    """Join/decommission orchestration over one :class:`FeisuCluster`.

    Owns the :class:`Rebalancer` (whose :class:`HeatTracker` every leaf
    records its reads in) and a placement-aware
    :class:`~repro.storage.maintenance.ReplicaRepairer` per managed
    system.
    """

    def __init__(self, cluster, config: ElasticConfig):
        self.cluster = cluster
        self.config = config
        sim = cluster.sim
        self.sim = sim
        #: Systems the rebalancer spreads and balances over (the hot,
        #: block-replicated substrates the scheduler scans from).
        self.systems: List[StorageSystem] = [cluster.storage_a, cluster.storage_b]

        self.rebalancer = Rebalancer(
            sim,
            cluster.net,
            cluster.router,
            self.systems,
            config=self.config,
            placement_ok=self.node_ok,
        )
        self.heat = self.rebalancer.heat
        self.repairers = [
            ReplicaRepairer(sim, cluster.net, system, placement_ok=self.node_ok)
            for system in self.systems
        ]
        self.joins = 0
        self.decommissions = 0
        #: Addresses that completed decommission — the invariant monitor
        #: checks no block placement ever references one of these.
        self.departed: List[NodeAddress] = []
        self._next_node: Dict[Tuple[int, int], int] = {}

    def start(self) -> None:
        self.rebalancer.start()
        for repairer in self.repairers:
            repairer.start()

    # -- eligibility ------------------------------------------------------

    def node_ok(self, addr: NodeAddress) -> bool:
        """Placement-eligibility: a registered, live, non-draining leaf."""
        leaf = self.cluster.scheduler.leaf_at(addr)
        if leaf is None or not leaf.alive:
            return False
        cm = self.cluster.cluster_manager
        try:
            return cm.is_alive(leaf.worker_id) and not cm.is_draining(leaf.worker_id)
        except ClusterStateError:
            return False

    # -- node join --------------------------------------------------------

    def join_node(self, datacenter: int = 0, rack: int = 0):
        """Bring a new leaf up in an existing rack: cable it into the
        topology, admit it to every storage pool, register + heartbeat.
        Returns the new :class:`~repro.cluster.node.LeafServer`."""
        key = (datacenter, rack)
        index = self._next_node.get(key, self.cluster.config.nodes_per_rack)
        addr = NodeAddress(datacenter, rack, index)
        self._next_node[key] = index + 1
        self.cluster.net.admit_node(addr)
        for system in self.cluster.router.systems():
            system.add_node(addr)
        from repro.cluster.node import LeafServer

        leaf = LeafServer(
            self.sim,
            worker_id=f"leaf-{addr}",
            address=addr,
            net=self.cluster.net,
            router=self.cluster.router,
            cluster_manager=self.cluster.cluster_manager,
            config=replace(self.cluster.config.leaf),
        )
        self.cluster.wire_leaf(leaf)
        self.cluster.leaves.append(leaf)
        self.cluster.scheduler.register_leaf(leaf)
        self.joins += 1
        return leaf

    # -- decommission -----------------------------------------------------

    def decommission(self, worker_id: str) -> Event:
        """Start a graceful decommission; returns the drain process event
        (drive the simulation to completion to finish it).

        Drain order: mark draining (scheduler stops placing) → evacuate
        every replica the node holds across every storage system —
        retrying through fault windows — → wait for
        running tasks to finish → retire, unregister, leave every
        placement pool.
        """
        leaf = next(
            (l for l in self.cluster.leaves if l.worker_id == worker_id), None
        )
        if leaf is None:
            raise FeisuError(f"no leaf {worker_id!r} to decommission")
        self.cluster.cluster_manager.start_drain(worker_id)
        return self.sim.process(self._drain(leaf), name=f"drain-{worker_id}")

    def _drain(self, leaf) -> Generator[Event, None, None]:
        addr = leaf.address
        all_systems = list(self.cluster.router.systems())
        while True:
            pending = [
                (system, inner)
                for system in all_systems
                for inner in system.held_paths(addr)
            ]
            if not pending and leaf.running_tasks == 0 and leaf.queued_tasks == 0:
                break
            for system, inner in pending:
                try:
                    yield from self.rebalancer.evacuate_replica(system, inner, addr)
                except FaultInjectedError:
                    # The copy died mid-flight: nothing was published, the
                    # replica is still on the draining node, and the next
                    # pass retries.  The drain never gives up.
                    self.rebalancer.stats.failed_migrations += 1
            yield self.sim.timeout(self.config.drain_poll_s)
        leaf.retire()
        self.cluster.scheduler.unregister_leaf(leaf.worker_id)
        self.cluster.cluster_manager.unregister(leaf.worker_id)
        for system in all_systems:
            if addr in system.nodes():
                system.remove_node(addr)
        self.departed.append(addr)
        self.decommissions += 1
