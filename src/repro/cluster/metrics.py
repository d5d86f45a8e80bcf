"""Cluster-wide metrics snapshots.

The paper's shadow components "provide functionalities such as
monitoring running information to reduce the burdens on the primary"
(§III-C); this module is that monitoring surface: one call collects
device utilizations, network link load, SmartIndex counters and job
outcomes across the deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.jobs import JobStatus


@dataclass
class DeviceMetrics:
    """Utilization of one device class aggregated over leaves."""

    mean_utilization: float = 0.0
    max_utilization: float = 0.0
    total_bytes: float = 0.0


@dataclass
class ClusterMetrics:
    """One point-in-time snapshot of the whole deployment."""

    sim_time_s: float = 0.0
    leaves_alive: int = 0
    leaves_total: int = 0
    disk: DeviceMetrics = field(default_factory=DeviceMetrics)
    cpu: DeviceMetrics = field(default_factory=DeviceMetrics)
    network_busiest_link_utilization: float = 0.0
    network_total_bytes: float = 0.0
    index_entries: int = 0
    index_memory_bytes: int = 0
    index_hit_rate: float = 0.0
    jobs_total: int = 0
    jobs_succeeded: int = 0
    jobs_failed: int = 0
    jobs_timed_out: int = 0
    tasks_completed: int = 0
    heartbeats_received: int = 0
    jobs_queued: int = 0
    results_spilled: int = 0
    # Gateway serving counters (all zero when no gateway is configured).
    gateway_sessions_open: int = 0
    gateway_queue_depth: int = 0
    gateway_running: int = 0
    gateway_admitted: int = 0
    gateway_rejected: int = 0
    gateway_completed: int = 0
    gateway_failed: int = 0
    gateway_killed: int = 0
    gateway_timed_out: int = 0
    gateway_memory_in_use: float = 0.0
    #: Per-tenant queue depth keyed by tenant name (not in ``as_dict``,
    #: whose schema is flat floats; read it off the snapshot directly).
    gateway_tenant_queue_depth: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        return {
            "sim_time_s": self.sim_time_s,
            "leaves_alive": self.leaves_alive,
            "leaves_total": self.leaves_total,
            "disk_mean_utilization": self.disk.mean_utilization,
            "disk_max_utilization": self.disk.max_utilization,
            "disk_total_bytes": self.disk.total_bytes,
            "cpu_mean_utilization": self.cpu.mean_utilization,
            "cpu_max_utilization": self.cpu.max_utilization,
            "network_busiest_link_utilization": self.network_busiest_link_utilization,
            "network_total_bytes": self.network_total_bytes,
            "index_entries": self.index_entries,
            "index_memory_bytes": self.index_memory_bytes,
            "index_hit_rate": self.index_hit_rate,
            "jobs_total": self.jobs_total,
            "jobs_succeeded": self.jobs_succeeded,
            "jobs_failed": self.jobs_failed,
            "jobs_timed_out": self.jobs_timed_out,
            "tasks_completed": self.tasks_completed,
            "heartbeats_received": self.heartbeats_received,
            "jobs_queued": self.jobs_queued,
            "results_spilled": self.results_spilled,
            "gateway_sessions_open": self.gateway_sessions_open,
            "gateway_queue_depth": self.gateway_queue_depth,
            "gateway_running": self.gateway_running,
            "gateway_admitted": self.gateway_admitted,
            "gateway_rejected": self.gateway_rejected,
            "gateway_completed": self.gateway_completed,
            "gateway_failed": self.gateway_failed,
            "gateway_killed": self.gateway_killed,
            "gateway_timed_out": self.gateway_timed_out,
            "gateway_memory_in_use": self.gateway_memory_in_use,
        }


def collect_metrics(cluster) -> ClusterMetrics:
    """Snapshot a :class:`~repro.core.feisu.FeisuCluster`."""
    m = ClusterMetrics(sim_time_s=cluster.sim.now)
    leaves = cluster.leaves
    m.leaves_total = len(leaves)
    m.leaves_alive = sum(leaf.alive for leaf in leaves)
    if leaves:
        disk_utils = [leaf.disk.utilization() for leaf in leaves]
        cpu_utils = [leaf.cpu.utilization() for leaf in leaves]
        m.disk = DeviceMetrics(
            mean_utilization=sum(disk_utils) / len(leaves),
            max_utilization=max(disk_utils),
            total_bytes=float(sum(leaf.disk.bytes_read for leaf in leaves)),
        )
        m.cpu = DeviceMetrics(
            mean_utilization=sum(cpu_utils) / len(leaves),
            max_utilization=max(cpu_utils),
            total_bytes=float(sum(leaf.cpu.ops_executed for leaf in leaves)),
        )
        m.tasks_completed = sum(leaf.tasks_completed for leaf in leaves)

    links = cluster.net.links()
    if links:
        m.network_busiest_link_utilization = max(ln.utilization() for ln in links)
        m.network_total_bytes = float(sum(ln.bytes_carried for ln in links))

    stats = cluster.aggregate_index_stats()
    m.index_hit_rate = (
        (stats.hits + stats.complement_hits) / stats.lookups if stats.lookups else 0.0
    )
    m.index_entries = sum(
        leaf.index_manager.entry_count for leaf in leaves if leaf.index_manager is not None
    )
    m.index_memory_bytes = cluster.index_memory_used()

    job_manager = cluster.master.job_manager
    m.jobs_total = job_manager.jobs_total
    m.jobs_succeeded = job_manager.finished_by_status[JobStatus.SUCCEEDED]
    m.jobs_failed = job_manager.finished_by_status[JobStatus.FAILED]
    m.jobs_timed_out = job_manager.finished_by_status[JobStatus.TIMED_OUT]
    m.heartbeats_received = cluster.cluster_manager.heartbeats_received
    m.jobs_queued = cluster.master.queued_jobs
    m.results_spilled = job_manager.results_spilled

    gateway = getattr(cluster, "gateway", None)
    if gateway is not None:
        snap = gateway.snapshot()
        m.gateway_sessions_open = snap.sessions_open
        m.gateway_queue_depth = snap.queue_depth
        m.gateway_running = snap.running
        m.gateway_admitted = snap.admitted
        m.gateway_rejected = snap.rejected
        m.gateway_completed = snap.completed
        m.gateway_failed = snap.failed
        m.gateway_killed = snap.killed
        m.gateway_timed_out = snap.timed_out
        m.gateway_memory_in_use = snap.memory_in_use
        m.gateway_tenant_queue_depth = {
            name: ts.queue_depth for name, ts in snap.tenants.items()
        }
    return m


class MetricsTimeSeries:
    """Rolling :func:`collect_metrics` samples over the simulated clock.

    A periodic sampler process snapshots the cluster every ``period_s``
    simulated seconds and keeps samples inside the ``retention_s``
    window.  Sampling is read-only — it inspects counters and device
    state without touching the event loop's outcomes — but the sampler
    does add its own timer events, so it is opt-in (see
    :meth:`repro.core.feisu.FeisuCluster.start_metrics_sampler`) and
    never runs during the committed figure benchmarks.
    """

    def __init__(self, cluster, period_s: float = 5.0, retention_s: float = 3600.0):
        self.cluster = cluster
        self.period_s = float(period_s)
        self.retention_s = float(retention_s)
        self.samples: List[ClusterMetrics] = []
        self.samples_taken = 0
        self.samples_evicted = 0
        self._proc = None

    def start(self) -> "MetricsTimeSeries":
        if self._proc is None:
            self._proc = self.cluster.sim.process(self._run(), name="metrics.sampler")
        return self

    def _run(self):
        while True:
            yield self.cluster.sim.timeout(self.period_s)
            self.samples.append(collect_metrics(self.cluster))
            self.samples_taken += 1
            cutoff = self.cluster.sim.now - self.retention_s
            while self.samples and self.samples[0].sim_time_s < cutoff:
                self.samples.pop(0)
                self.samples_evicted += 1

    def latest(self) -> Optional[ClusterMetrics]:
        return self.samples[-1] if self.samples else None

    def series(self, key: str) -> List[float]:
        """One metric's values across the retained samples."""
        return [s.as_dict()[key] for s in self.samples]

    def timestamps(self) -> List[float]:
        return [s.sim_time_s for s in self.samples]

    def export(self) -> List[Dict[str, float]]:
        """JSON-ready list of sample dicts (benchmark-harness surface)."""
        return [s.as_dict() for s in self.samples]
