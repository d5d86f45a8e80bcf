"""Job scheduler: locality-aware task placement (§III-B).

The placement policy is the paper's, in order:

1. a live leaf co-located with the data, picking the least-loaded
   replica holder;
2. otherwise any live leaf, minimizing estimated network transfer cost
   plus current load pressure.

The scheduler also owns speculative *backup tasks* (§III-C): a task
overdue by ``BACKUP_FACTOR`` × its cost estimate gets a second copy on a
different node; the first completion wins.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence

from repro.cluster.membership import ClusterManager
from repro.cluster.node import LeafServer
from repro.errors import SchedulingError
from repro.planner.cnf import ConjunctiveForm
from repro.planner.cost import OPS_PER_DECODE, CostModel
from repro.planner.physical import ScanTask
from repro.sim.netmodel import NetworkTopology, NodeAddress
from repro.storage.router import StorageRouter

#: A task is overdue for a backup when it has run this multiple of its
#: cost estimate without reporting completion.
BACKUP_FACTOR = 3.0
#: Floor on the overdue threshold, in simulated seconds.
BACKUP_MIN_S = 2.0
#: Entries the (block, incarnation, column-set) byte-size memo keeps; the
#: oldest goes first, so tables that were dropped or reloaded age out of it.
TASK_BYTES_CACHE_ENTRIES = 1 << 16
#: How many re-admitted worker ids the scheduler remembers by name.
RECENT_READMISSIONS = 64
#: A leaf's standing in one :meth:`JobScheduler.place_wave` call (down,
#: dead-marked or excluded; draining; open), and a local candidate's rank.
_DEAD, _DRAINING, _OPEN = range(3)
_RANK = itemgetter(0, 1)


@dataclass
class Placement:
    """One scheduling decision."""

    leaf: LeafServer
    data_local: bool
    estimate_s: float


class JobScheduler:
    """Places scan tasks on leaves and decides backup eligibility."""

    def __init__(
        self,
        cluster_manager: ClusterManager,
        net: NetworkTopology,
        router: StorageRouter,
        cost_model: Optional[CostModel] = None,
        locality_aware: bool = True,
    ):
        self.cluster_manager = cluster_manager
        self.net = net
        self.router = router
        # A `CostModel()` *default argument* would be evaluated once at
        # def time and shared by every scheduler — ablation tweaks to its
        # rates would leak across clusters.  Construct per instance.
        self.cost_model = cost_model if cost_model is not None else CostModel()
        #: Ablation switch: False falls back to round-robin placement.
        self.locality_aware = locality_aware
        #: Memoized per-(block, columns) modeled byte sizes:
        #: ``BlockRef.bytes_for`` rebuilds a dict from the
        #: column-size tuple on every call, and placement used to pay
        #: that for every candidate of every task.
        self._task_bytes_cache: Dict[tuple, float] = {}
        self.task_bytes_hits = 0
        self.task_bytes_misses = 0
        self._leaves: Dict[str, LeafServer] = {}
        #: Registration index per worker — ``_leaves``' insertion order,
        #: so a block's holders can be put in the order a scan of every
        #: leaf would meet them (``min`` breaks ties on it).
        self._order: Dict[str, int] = {}
        self._registrations = 0
        #: Address → leaf map; ``leaf_at`` used to scan every leaf per
        #: call, O(n) on the result-return path of every task.
        self._by_address: Dict[NodeAddress, LeafServer] = {}
        self._rr = 0
        self.placements_local = 0
        self.placements_remote = 0
        # Interleaved submissions (gateway sessions, concurrent callers
        # in tests) mutate the round-robin cursor and placement counters;
        # an RLock keeps increments atomic so concurrent placement
        # neither skips nor double-counts a slot.
        self._lock = threading.RLock()
        #: Workers explicitly re-admitted after being declared dead
        #: (wired to :meth:`ClusterManager.on_readmit`): a running count
        #: and the most recent ids, oldest first.
        self.readmissions = 0
        self.readmitted_workers: List[str] = []

    def register_leaf(self, leaf: LeafServer) -> None:
        with self._lock:
            self._leaves[leaf.worker_id] = leaf
            self._by_address[leaf.address] = leaf
            # Re-registering a known id keeps its place, as in the dict;
            # unregister + register moves it to the end.
            if leaf.worker_id not in self._order:
                self._order[leaf.worker_id] = self._registrations
                self._registrations += 1

    def unregister_leaf(self, worker_id: str) -> None:
        """Forget a decommissioned leaf (S55): it stops being a placement
        candidate and ``leaf_at`` no longer resolves its address."""
        with self._lock:
            leaf = self._leaves.pop(worker_id, None)
            self._order.pop(worker_id, None)
            if leaf is not None:
                self._by_address.pop(leaf.address, None)

    def note_readmission(self, worker_id: str) -> None:
        """Cluster-manager callback: a dead-marked worker heartbeat again
        and is placeable once more."""
        self.readmissions += 1
        self.readmitted_workers.append(worker_id)
        del self.readmitted_workers[:-RECENT_READMISSIONS]

    def leaves(self) -> List[LeafServer]:
        return list(self._leaves.values())

    def leaf_at(self, address: NodeAddress) -> Optional[LeafServer]:
        return self._by_address.get(address)

    def _task_bytes(self, task: ScanTask) -> float:
        """Modeled bytes a scan of ``task.columns`` reads from the catalog
        block, memoized per (block, incarnation, column-set)."""
        key = (task.block.block_id, task.block.incarnation, task.columns)
        cached = self._task_bytes_cache.get(key)
        if cached is not None:
            self.task_bytes_hits += 1
            return cached
        self.task_bytes_misses += 1
        nbytes = task.block.bytes_for(task.columns) * task.block.scale_factor
        if len(self._task_bytes_cache) >= TASK_BYTES_CACHE_ENTRIES:
            del self._task_bytes_cache[next(iter(self._task_bytes_cache))]
        self._task_bytes_cache[key] = nbytes
        return nbytes

    # -- placement -----------------------------------------------------------

    def place(
        self,
        task: ScanTask,
        cnf: ConjunctiveForm,
        exclude: Sequence[str] = (),
    ) -> Placement:
        """Choose a leaf for ``task``: :meth:`place_wave` of one task."""
        placement = self.place_wave((task,), cnf, exclude)[0]
        if placement is None:
            raise SchedulingError(f"no live leaf available for task {task.task_id}")
        return placement

    def place_wave(
        self,
        tasks: Sequence[ScanTask],
        cnf: ConjunctiveForm,
        exclude: Sequence[str] = (),
    ) -> List[Optional[Placement]]:
        """Place ``tasks`` in order per the §III-B policy, exactly as one
        :meth:`place` per task would; None where no leaf is live.

        Placing changes no leaf, so each candidate leaf's eligibility and
        ``pressure()`` are read at most once per call, and the cost
        model's terms once.
        """
        manager, net = self.cluster_manager, self.net
        is_draining = manager.is_draining
        cost = self.cost_model
        seek, bandwidth, cpu_rate = cost.disk_seek_s, cost.disk_bandwidth_bps, cost.cpu_ops_per_sec
        ops_per_row = cost.predicate_ops_per_row(cnf)
        # Per leaf its state and load, per replica address its candidate.
        states, loads, holders_at = {}, {}, {}
        pool: Optional[List[LeafServer]] = None
        placements: List[Optional[Placement]] = []
        local_count = 0

        def state(leaf: LeafServer) -> int:
            if leaf not in states:
                wid = leaf.worker_id
                states[leaf] = (
                    _DEAD if not (leaf.alive and manager.is_alive(wid)) or wid in exclude
                    else _DRAINING if is_draining(wid) else _OPEN
                )
            return states[leaf]

        def load(leaf: LeafServer) -> float:
            if leaf not in loads:
                loads[leaf] = leaf.pressure()
            return loads[leaf]

        def holder(addr: NodeAddress) -> Optional[tuple]:
            leaf = self._by_address.get(addr)
            registered = leaf is not None and self._leaves.get(leaf.worker_id) is leaf
            holders_at[addr] = (
                (load(leaf), self._order[leaf.worker_id], leaf)
                if registered and state(leaf) == _OPEN else None
            )
            return holders_at[addr]

        for task in tasks:
            system, inner = self.router.resolve(task.block.path)
            replicas = system.locations(inner)
            # Local candidates as (load, registration index, leaf): the
            # least loaded wins, and of equals the first a scan of every
            # leaf would meet.
            local = []
            if self.locality_aware:
                # Holder-first: an open holder proves the pool below would
                # choose among exactly the block's open holders.
                for addr in replicas:
                    entry = holders_at[addr] if addr in holders_at else holder(addr)
                    if entry is not None:
                        local.append(entry)
            if not local:
                if pool is None:
                    # Draining workers (S55) take no new tasks unless they
                    # are the only live leaves left.
                    live = [leaf for leaf in self._leaves.values() if state(leaf) != _DEAD]
                    pool = [leaf for leaf in live if states[leaf] == _OPEN] or live
                if not pool:
                    placements.append(None)
                    continue
                if not self.locality_aware:
                    with self._lock:
                        cursor = self._rr
                        self._rr += 1
                    leaf = pool[cursor % len(pool)]
                else:
                    replica_addrs = set(replicas)
                    local = [
                        (load(leaf), self._order[leaf.worker_id], leaf)
                        for leaf in pool
                        if leaf.address in replica_addrs
                    ]
                    if not local:
                        # No replica holder available: minimize transfer + load.
                        def remote_cost(leaf: LeafServer) -> float:
                            nbytes = self._task_bytes(task)
                            xfers = (
                                net.transfer_time_estimate(addr, leaf.address, int(nbytes))
                                for addr in replica_addrs
                            )
                            return min(xfers, default=0.0) + 0.05 * load(leaf)

                        leaf = min(pool, key=remote_cost)
            if local:
                leaf = min(local, key=_RANK)[2]
            data_local = bool(local) or leaf.address in replicas
            # ``CostModel.task_seconds`` in its float order, so bit for bit.
            profile, rows = system.profile, task.block.modeled_rows
            estimate = (
                profile.first_byte_latency_s
                + (seek + self._task_bytes(task) / (bandwidth * profile.bandwidth_factor))
                + (OPS_PER_DECODE * rows * len(task.columns) + ops_per_row * rows) / cpu_rate
            )
            if not data_local and replicas:
                nbytes = self._task_bytes(task)
                estimate += min(
                    net.transfer_time_estimate(addr, leaf.address, int(nbytes))
                    for addr in replicas
                )
            local_count += data_local
            placements.append(Placement(leaf, data_local, estimate))
        with self._lock:
            self.placements_local += local_count
            self.placements_remote += len(placements) - placements.count(None) - local_count
        return placements

    # -- backup tasks ----------------------------------------------------------

    def backup_deadline(self, estimate_s: float) -> float:
        """Seconds after dispatch when a backup copy should launch."""
        return max(BACKUP_MIN_S, BACKUP_FACTOR * estimate_s)
