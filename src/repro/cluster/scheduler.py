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
from repro.planner.cost import CostModel
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
        #: Tiering hook (:class:`repro.storage.tiering.TieringDaemon`);
        #: when set, placement follows the promoted replica set.
        self.tiering = None
        #: Layout hook (:class:`repro.storage.layouts.LayoutDaemon`);
        #: when set, candidate replicas are scored by the layout each one
        #: serves (sorted → range pruning, subset → smaller read,
        #: attached index → covered probe) instead of load pressure alone.
        self.layouts = None
        #: Memoized per-(block, columns) modeled byte sizes (S54
        #: satellite): ``BlockRef.bytes_for`` rebuilds a dict from the
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

    def _effective_path(self, task: ScanTask) -> str:
        """The path the leaf will actually read — promoted hot copy when
        the tiering daemon has published one, catalog path otherwise."""
        if self.tiering is not None:
            return self.tiering.effective_path(task.block.path)
        return task.block.path

    # -- placement -----------------------------------------------------------

    def place(
        self,
        task: ScanTask,
        cnf: ConjunctiveForm,
        exclude: Sequence[str] = (),
        prefer: Sequence[str] = (),
    ) -> Placement:
        """Choose a leaf for ``task`` per the §III-B policy.

        ``prefer`` narrows the candidate pool to those workers when any
        of them is alive — the adaptive re-optimizer uses it to colocate
        remainder tasks with leaves that already hold the broadcast
        frames, avoiding a second dimension-table ship.
        """
        system, inner = self.router.resolve(self._effective_path(task))
        is_draining = getattr(self.cluster_manager, "is_draining", None)
        if self.locality_aware and not prefer:
            # Holder-first: a live, non-draining holder proves the global
            # non-draining list non-empty, so the registry-wide filters
            # below would select exactly these leaves — start from the
            # block's replicas instead of from every registered leaf.
            ranked = []
            for addr in system.locations(inner):
                leaf = self._by_address.get(addr)
                if (
                    leaf is not None
                    and self._leaves.get(leaf.worker_id) is leaf
                    and leaf.alive
                    and self.cluster_manager.is_alive(leaf.worker_id)
                    and leaf.worker_id not in exclude
                    and not (is_draining is not None and is_draining(leaf.worker_id))
                ):
                    ranked.append((self._order[leaf.worker_id], leaf))
            if ranked:
                ranked.sort(key=itemgetter(0))
                holders = [leaf for _, leaf in ranked]
                return self._place_on_holder(holders, task, cnf, system, inner)

        # Fall-through (no eligible holder, ``prefer`` given, round-robin
        # ablation, every live leaf draining): filter the whole registry.
        alive = [
            leaf
            for leaf in self._leaves.values()
            if leaf.alive
            and self.cluster_manager.is_alive(leaf.worker_id)
            and leaf.worker_id not in exclude
        ]
        # Draining workers (S55) take no new tasks while their replicas
        # evacuate — unless they are the only live leaves left, in which
        # case liveness beats drain strictness.  A manager without drain
        # states (test doubles) drains nothing.
        if is_draining is not None:
            non_draining = [leaf for leaf in alive if not is_draining(leaf.worker_id)]
            if non_draining:
                alive = non_draining
        if prefer:
            preferred = [leaf for leaf in alive if leaf.worker_id in prefer]
            if preferred:
                alive = preferred
        if not alive:
            raise SchedulingError(f"no live leaf available for task {task.task_id}")
        if not self.locality_aware:
            with self._lock:
                cursor = self._rr
                self._rr += 1
            leaf = alive[cursor % len(alive)]
            local = leaf.address in system.locations(inner)
            self._count(local)
            return Placement(leaf, local, self._estimate(leaf, task, cnf, local, system, inner))

        replica_addrs = set(system.locations(inner))
        local_candidates = [leaf for leaf in alive if leaf.address in replica_addrs]
        if local_candidates:
            return self._place_on_holder(local_candidates, task, cnf, system, inner)

        # No replica holder available: minimize transfer + load.
        def remote_cost(leaf: LeafServer) -> float:
            if self.layouts is not None:
                xfer = min(
                    self.net.transfer_time_estimate(
                        addr,
                        leaf.address,
                        int(self.layouts.replica_bytes(task, addr)),
                    )
                    for addr in replica_addrs
                ) if replica_addrs else 0.0
            else:
                nbytes = self._task_bytes(task)
                xfer = min(
                    self.net.transfer_time_estimate(addr, leaf.address, int(nbytes))
                    for addr in replica_addrs
                ) if replica_addrs else 0.0
            return xfer + 0.05 * leaf.pressure()

        leaf = min(alive, key=remote_cost)
        self._count(False)
        return Placement(leaf, False, self._estimate(leaf, task, cnf, False, system, inner))

    def _place_on_holder(
        self, holders: List[LeafServer], task: ScanTask, cnf: ConjunctiveForm, system, inner: str
    ) -> Placement:
        """The §III-B local choice among replica ``holders``, given in
        registration order (``min`` keeps the first of equals)."""
        if self.layouts is not None:
            # Trojan replicas (S54): holders are not interchangeable —
            # score each by the layout its copy serves, load-broken.
            leaf = min(
                holders,
                key=lambda lf: (
                    self.layouts.scan_seconds(task, cnf, lf.address)
                    + 0.05 * lf.pressure(),
                    lf.worker_id,
                ),
            )
        else:
            leaf = min(holders, key=LeafServer.pressure)
        self._count(True)
        return Placement(leaf, True, self._estimate(leaf, task, cnf, True, system, inner))

    def _count(self, local: bool) -> None:
        with self._lock:
            if local:
                self.placements_local += 1
            else:
                self.placements_remote += 1

    def _estimate(
        self, leaf: LeafServer, task: ScanTask, cnf: ConjunctiveForm, local: bool, system, inner: str
    ) -> float:
        """Cost estimate for ``task`` on ``leaf``; ``system``/``inner`` are
        the task's effective path as :meth:`place` resolved it."""
        if self.layouts is not None:
            # Layout-aware estimate: prices the serving replica's variant
            # and already includes the transfer leg for non-holders.
            return self.layouts.scan_seconds(task, cnf, leaf.address)
        est = self.cost_model.task_seconds(
            task,
            cnf,
            index_covered=False,
            bandwidth_factor=system.profile.bandwidth_factor,
            extra_latency_s=system.profile.first_byte_latency_s,
            nbytes=self._task_bytes(task),
        )
        if not local:
            replicas = system.locations(inner)
            if replicas:
                nbytes = self._task_bytes(task)
                est += min(
                    self.net.transfer_time_estimate(addr, leaf.address, int(nbytes))
                    for addr in replicas
                )
        return est

    # -- backup tasks ----------------------------------------------------------

    def backup_deadline(self, estimate_s: float) -> float:
        """Seconds after dispatch when a backup copy should launch."""
        return max(BACKUP_MIN_S, BACKUP_FACTOR * estimate_s)
