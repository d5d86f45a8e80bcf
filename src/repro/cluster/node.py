"""Leaf and stem servers (§III-B/C).

A :class:`LeafServer` is the light-weight Feisu process co-deployed on a
storage node.  It owns the node's simulated devices (disk, SSD, CPU,
NIC), a per-storage-system task-slot pool sized by the system's resource
agreement (so Feisu never starves the business application), the node's
SmartIndex cache, the SSD data cache, and optionally the B+ tree
baseline.

A :class:`StemServer` aggregates task results flowing up the tree and
forwards one merged payload to the master per job.

All timing flows through the DES devices; all results are computed for
real by :mod:`repro.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.cluster.membership import HEARTBEAT_PERIOD_S, ClusterManager
from repro.cluster.messages import HEARTBEAT_BYTES, WorkerLoad
from repro.columnar.block import Block
from repro.engine.executor import TaskResult, execute_scan_task
from repro.errors import ClusterStateError, ExecutionError, FaultInjectedError
from repro.index.btree import BTreeIndex
from repro.index.smartindex import SmartIndexManager
from repro.planner.cost import CostModel
from repro.planner.expressions import Frame
from repro.planner.physical import PhysicalPlan, ScanTask
from repro.sim.events import Event, Simulator
from repro.sim.netmodel import NetworkTopology, NodeAddress, TrafficClass
from repro.sim.resources import Cpu, Disk, Nic, Resource, Ssd
from repro.storage.router import StorageRouter
from repro.storage.ssd_cache import SsdCache


#: Entries in a leaf's parsed-block map.  An entry is the header objects
#: of one block plus views into a payload the storage system already
#: holds, so the bound limits bookkeeping, not data.
PARSED_BLOCKS_MAX = 128


@dataclass
class LeafConfig:
    """Per-leaf feature switches and sizes."""

    enable_smartindex: bool = True
    index_memory_bytes: int = 512 * 1024 * 1024
    index_ttl_s: float = 72 * 3600.0
    index_compress: bool = True
    enable_btree: bool = False
    enable_ssd_cache: bool = False
    ssd_cache_bytes: int = 400 * 1024 * 1024 * 1024
    ssd_admit_preferred_only: bool = True


class LeafServer:
    """One worker in leaf role."""

    def __init__(
        self,
        sim: Simulator,
        worker_id: str,
        address: NodeAddress,
        net: NetworkTopology,
        router: StorageRouter,
        cluster_manager: ClusterManager,
        cost_model: Optional[CostModel] = None,
        config: Optional[LeafConfig] = None,
    ):
        self.sim = sim
        self.worker_id = worker_id
        self.address = address
        self.net = net
        self.router = router
        self.cluster_manager = cluster_manager
        # Per-instance defaults: a shared def-time CostModel()/LeafConfig()
        # would leak mutations across every leaf in every cluster.
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.config = config if config is not None else LeafConfig()
        config = self.config
        self.alive = True
        #: Fault-injection hook (:class:`repro.faults.FaultInjector`);
        #: None keeps every interception point on its zero-cost branch.
        self.faults = None
        #: Heat hook (:class:`repro.cluster.elastic.HeatTracker`): every
        #: access is recorded in the elastic rebalancer's tracker (S55; see
        #: ``FeisuCluster.wire_leaf``).  None (the default) records nothing.
        self.heat = None
        #: Set by a completed decommission (S55): the heartbeat process
        #: exits instead of looping forever on a dead worker.
        self.retired = False

        self.disk = Disk(sim, name=f"{worker_id}.disk")
        self.ssd = Ssd(sim, name=f"{worker_id}.ssd")
        self.cpu = Cpu(sim, name=f"{worker_id}.cpu")
        self.nic = Nic(sim, name=f"{worker_id}.nic")

        self.index_manager: Optional[SmartIndexManager] = (
            SmartIndexManager(
                memory_budget_bytes=config.index_memory_bytes,
                ttl_s=config.index_ttl_s,
                compress=config.index_compress,
            )
            if config.enable_smartindex
            else None
        )
        self.ssd_cache: Optional[SsdCache] = (
            SsdCache(config.ssd_cache_bytes, config.ssd_admit_preferred_only)
            if config.enable_ssd_cache
            else None
        )
        #: The B+ tree baseline over base row order (Fig 9(b)), or None.
        self.btrees: Optional[BTreeIndex] = BTreeIndex() if config.enable_btree else None
        #: The access paths in fold order.
        self._paths = [p for p in (self.index_manager, self.btrees) if p is not None]
        #: Block path → (payload, the :class:`Block` parsed from it),
        #: oldest first.  An entry is reused only while the storage layer
        #: hands back *that very* bytes object: a write or delete replaces
        #: or drops the stored object, so a stale parse can never be served.
        self._parsed_blocks: Dict[str, Tuple[bytes, Block]] = {}

        #: Per-storage-system task slots honouring resource agreements.
        self._slots: Dict[str, Resource] = {}
        for system in router.systems():
            self._slots[system.name] = Resource(
                sim, system.profile.tasks_per_node, name=f"{worker_id}.slots.{system.name}"
            )

        self.running_tasks = 0
        self.queued_tasks = 0
        self.tasks_completed = 0
        cluster_manager.register(worker_id, address, is_stem=False)
        sim.process(self._heartbeat_loop(), name=f"{worker_id}.heartbeat")

    # -- resource agreements (§V-B) -----------------------------------------

    def reclaim_slots(self, storage_name: str, slots: int) -> None:
        """Shrink Feisu's task slots for one storage system.

        §V-B: consolidated servers sometimes "have to give up resources
        to guarantee the provision of high-priority online services";
        Feisu reacts by queueing rather than refusing — running tasks
        finish, new ones wait for the reduced slot pool.
        """
        try:
            self._slots[storage_name].resize(max(1, slots))
        except KeyError:
            raise ClusterStateError(f"no storage system {storage_name!r} on this leaf") from None

    def restore_slots(self, storage_name: str) -> None:
        """Give back the agreement's full slot count."""
        for system in self.router.systems():
            if system.name == storage_name:
                self._slots[storage_name].resize(system.profile.tasks_per_node)
                return
        raise ClusterStateError(f"no storage system {storage_name!r} on this leaf")

    def slot_capacity(self, storage_name: str) -> int:
        return self._slots[storage_name].capacity

    # -- degradation (stragglers) ------------------------------------------

    def slow_down(self, factor: float) -> None:
        """Degrade this node's devices by ``factor`` (a straggler).

        §V-B: consolidated containers suffer interference — "this affects
        system throughput and latency".  A degraded leaf keeps serving,
        just slowly, which is exactly the case backup tasks exist for.
        """
        if factor <= 0:
            raise ClusterStateError("slow-down factor must be positive")
        self.disk.bandwidth_bps /= factor
        self.ssd.bandwidth_bps /= factor
        self.cpu.ops_per_sec /= factor

    def restore_speed(self, factor: float) -> None:
        """Undo a prior :meth:`slow_down` with the same factor."""
        self.disk.bandwidth_bps *= factor
        self.ssd.bandwidth_bps *= factor
        self.cpu.ops_per_sec *= factor

    # -- liveness ---------------------------------------------------------

    def crash(self) -> None:
        """Simulate process death: heartbeats stop, in-flight tasks fail."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def retire(self) -> None:
        """Graceful exit after decommission (S55): unlike :meth:`crash`,
        the worker leaves for good — its heartbeat process terminates."""
        self.alive = False
        self.retired = True

    def _heartbeat_loop(self) -> Generator[Event, None, None]:
        master_addr = NodeAddress(0, 0, 0)
        while True:
            yield self.sim.timeout(HEARTBEAT_PERIOD_S)
            if self.retired:
                return
            if not self.alive:
                continue
            if self.faults is not None and self.faults.heartbeat_suppressed(self.worker_id):
                continue  # zombie: process alive, heartbeats lost in the fabric
            load = self.load_snapshot()
            if self.address != master_addr:
                try:
                    yield self.net.transfer(
                        self.address, master_addr, HEARTBEAT_BYTES, TrafficClass.CONTROL
                    )
                except FaultInjectedError:
                    continue  # this beat never arrived; try again next period
            if not self.alive:
                # Crashed while the heartbeat was in flight.  However late
                # the packet lands, a dead process must not report itself
                # live — doing so resurrected corpses in the membership
                # table after the sweep had already rescheduled their work.
                continue
            self.cluster_manager.heartbeat(self.worker_id, load)

    # -- task execution ------------------------------------------------------

    def run_task(
        self,
        task: ScanTask,
        plan: PhysicalPlan,
        broadcast_frames: Dict[str, Frame],
        span=None,
    ) -> Generator[Event, None, TaskResult]:
        """Generator process executing one scan task on this leaf.

        ``span`` (a :class:`~repro.obs.trace.Span` for this attempt, or
        None) gains ``queue_wait`` / ``index_probe`` / ``scan`` /
        ``aggregate`` children, the probe's read off the task's report
        and this leaf's index counters; span bookkeeping is plain object
        mutation and never touches the event loop, so tracing cannot
        perturb simulated timing.
        """
        if not self.alive:
            raise ClusterStateError(f"{self.worker_id} is down")
        block_path = task.block.path
        system, inner = self.router.resolve(block_path)
        slot = self._slots[system.name]
        self.queued_tasks += 1
        wait = span.add("queue_wait", self.sim.now) if span is not None else None
        yield slot.request()
        if wait is not None:
            wait.finish(self.sim.now, storage=system.name)
        self.queued_tasks -= 1
        self.running_tasks += 1
        try:
            payload = system.read(inner)
            # ``Block.from_bytes(payload)``, parsed once per stored object:
            # an entry is valid while storage returns that very payload.
            parsed = self._parsed_blocks
            hit = parsed.get(block_path)
            if hit is not None and hit[0] is payload:
                block = hit[1]
            else:
                block = Block.from_bytes(payload)
                if hit is None and len(parsed) >= PARSED_BLOCKS_MAX:
                    del parsed[next(iter(parsed))]
                parsed[block_path] = (payload, block)
            index_key = (block.block_id, system.incarnation(inner))  # of the bytes just read
            index_manager = self.index_manager
            probed = None
            if span is not None and index_manager is not None:
                stats = index_manager.stats
                probed = (stats.hits, stats.complement_hits, stats.misses)
            result = execute_scan_task(
                task,
                plan,
                block,
                broadcast_frames,
                paths=self._paths,
                now=self.sim.now,
                index_key=index_key,
            )
            report = result.report
            if probed is not None:
                self._trace_index_probe(span, index_manager, probed, report)

            charged = report.io_bytes > 0
            scan = span.add("scan", self.sim.now) if span is not None else None
            if charged:
                yield from self._charge_io(system, inner, block_path, payload, report)
            if scan is not None:
                scan.finish(self.sim.now, **self._scan_tags(report, charged))
            if report.modeled_cpu_ops > 0:
                cpu_name = "aggregate" if plan.is_aggregate else "project"
                cpu = span.add(cpu_name, self.sim.now) if span is not None else None
                yield self.cpu.compute(report.modeled_cpu_ops)
                if cpu is not None:
                    cpu.finish(self.sim.now, cpu_ops_modeled=report.modeled_cpu_ops)
            if not self.alive:
                raise ClusterStateError(f"{self.worker_id} died mid-task")
            self.tasks_completed += 1
            return result
        finally:
            self.running_tasks -= 1
            slot.release()

    def _trace_index_probe(self, span, index_manager, probed, report) -> None:
        """The ``index_probe`` child of a traced attempt, written at the
        instant the probe ran: ``probed`` is the manager's atom counters
        before the task, the rest is on the task's report.  No child when
        no probe ran (no filter)."""
        clauses = report.index_clause_hits + report.index_clause_misses
        if not clauses:
            return
        stats = index_manager.stats
        span.add(
            "index_probe",
            self.sim.now,
            self.sim.now,
            atom_hits=stats.hits - probed[0],
            complement_hits=stats.complement_hits - probed[1],
            atom_misses=stats.misses - probed[2],
            clauses=clauses,
            covered=report.index_clause_hits,
            full_cover=not report.index_clause_misses,
        )

    def _scan_tags(self, report, charged: bool) -> dict:
        """Tags of a traced ``scan`` child; a scan the index answered in
        full (not ``charged``) read nothing."""
        tags = {
            "io_bytes_modeled": report.modeled_io_bytes if charged else 0,
            "rows_in": report.rows_in_block,
            "rows_out": report.rows_matched,
        }
        if charged:
            tags["seeks"] = report.io_seeks
        return tags

    def _charge_io(
        self, system, inner: str, block_path: str, payload: bytes, report
    ) -> Generator[Event, None, None]:
        """Charge the simulated time for this task's data access.

        ``block_path`` is the catalog's full path: it keys the SSD cache
        and the access heat.
        """
        nbytes = int(report.modeled_io_bytes)
        profile = system.profile
        if self.heat is not None:
            self.heat.record(block_path, self.sim.now)
        if self.ssd_cache is not None and self.ssd_cache.get(block_path, payload):
            yield self.ssd.read(nbytes, seeks=report.io_seeks)
            return
        replicas = system.locations(inner)
        if not replicas:
            raise ExecutionError(f"no live replica for {block_path}")
        first_byte = profile.first_byte_latency_s
        if self.faults is not None:
            first_byte += self.faults.storage_first_byte_extra(system.name, self.worker_id)
        if self.address in replicas:
            if first_byte:
                yield Event(self.sim, "timeout", first_byte)
            yield self.disk.read(
                int(nbytes / profile.bandwidth_factor), seeks=report.io_seeks
            )
        else:
            # Remote read: source replica's storage latency + network path.
            source = min(replicas, key=lambda r: self.net.distance(r, self.address))
            if first_byte:
                yield Event(self.sim, "timeout", first_byte)
            yield self.net.transfer(source, self.address, nbytes, TrafficClass.READ)
        if self.ssd_cache is not None:
            self.ssd_cache.put(block_path, payload)

    # -- introspection --------------------------------------------------------

    def load_snapshot(self) -> WorkerLoad:
        return WorkerLoad(
            running_tasks=self.running_tasks,
            queued_tasks=self.queued_tasks,
            disk_queue_s=self.disk.queue_delay(),
            cpu_queue_s=self.cpu.queue_delay(),
        )

    def pressure(self) -> float:
        """``load_snapshot().pressure``, the same sum in the same order,
        without building a snapshot or calling the devices'
        ``queue_delay``: the scheduler reads it for every placement
        candidate."""
        now = self.sim.now
        disk_wait = self.disk._free_at - now  # noqa: SLF001
        cpu_wait = self.cpu._lane_free_at[0] - now  # noqa: SLF001
        # ``x if x > 0.0 else 0.0`` is ``max(0.0, x)``, bit for bit.
        return (
            self.running_tasks
            + self.queued_tasks
            + 2.0 * (disk_wait if disk_wait > 0.0 else 0.0)
            + 2.0 * (cpu_wait if cpu_wait > 0.0 else 0.0)
        )


class StemServer:
    """Intermediate aggregator in the server tree."""

    def __init__(
        self,
        sim: Simulator,
        worker_id: str,
        address: NodeAddress,
        net: NetworkTopology,
        cluster_manager: ClusterManager,
    ):
        self.sim = sim
        self.worker_id = worker_id
        self.address = address
        self.net = net
        self.alive = True
        #: Fault-injection hook; see :class:`LeafServer`.
        self.faults = None
        self.cpu = Cpu(sim, name=f"{worker_id}.cpu")
        self.results_merged = 0
        cluster_manager.register(worker_id, address, is_stem=True)
        sim.process(self._heartbeat_loop(cluster_manager), name=f"{worker_id}.heartbeat")

    def crash(self) -> None:
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def _heartbeat_loop(self, cluster_manager: ClusterManager) -> Generator[Event, None, None]:
        master_addr = NodeAddress(0, 0, 0)
        while True:
            yield self.sim.timeout(HEARTBEAT_PERIOD_S)
            if not self.alive:
                continue
            if self.faults is not None and self.faults.heartbeat_suppressed(self.worker_id):
                continue
            if self.address != master_addr:
                try:
                    yield self.net.transfer(
                        self.address, master_addr, HEARTBEAT_BYTES, TrafficClass.CONTROL
                    )
                except FaultInjectedError:
                    continue
            if not self.alive:
                continue  # died mid-flight; see LeafServer._heartbeat_loop
            cluster_manager.heartbeat(self.worker_id, WorkerLoad())

    def merge(self, result: TaskResult) -> Event:
        """Charge merge CPU for one incoming task result: the CPU event,
        whose value is ``result``."""
        if not self.alive:
            raise ClusterStateError(f"{self.worker_id} is down")
        if result.partial is not None:
            ops = 8.0 * (result.partial.num_groups or 1)
        elif result.frame is not None:
            ops = 2.0 * (result.frame.num_rows or 1)
        else:
            ops = 1.0
        self.results_merged += 1
        return self.cpu.compute(ops, result)
