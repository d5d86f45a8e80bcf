"""Cluster-wide metrics snapshots.

The paper's shadow components "provide functionalities such as
monitoring running information to reduce the burdens on the primary"
(§III-C); this module is that monitoring surface: one call collects
device utilizations, network link load, SmartIndex counters, job
outcomes, gateway serving counters and the maintenance daemons' books
across the deployment, as one flat ``name -> number`` dict.

Every counter is a plain dataclass field on the object that increments
it (``IndexStats``, ``RebalanceStats``, ``GatewaySnapshot``, ...).
:func:`counters` and :func:`summed` read those declared fields, so a
field added there reaches every snapshot and sum without being listed
anywhere else.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Iterable, List, Optional, Type, TypeVar

from repro.cluster.jobs import JobStatus

T = TypeVar("T")


def counters(obj, prefix: str = "") -> Dict[str, float]:
    """``obj``'s numeric dataclass fields in declaration order, keyed
    ``prefix + name``; non-numeric fields (dicts, names) are skipped."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, (int, float)):
            out[prefix + f.name] = value
    return out


def summed(objs: Iterable[T], cls: Type[T]) -> T:
    """Field-wise sum of ``objs``' numeric fields, as a fresh ``cls()``."""
    total = cls()
    for obj in objs:
        for name, value in counters(obj).items():
            setattr(total, name, getattr(total, name) + value)
    return total


def collect_metrics(cluster) -> Dict[str, float]:
    """Snapshot a :class:`~repro.core.feisu.FeisuCluster`.

    ``gateway_*`` keys are the gateway snapshot's counters (a default,
    all-zero snapshot without a gateway); ``rebalance_*`` appear only
    when the elastic rebalancer exists.  Per-tenant
    queue depths live on ``cluster.gateway.snapshot().tenants``.
    """
    from repro.gateway.gateway import GatewaySnapshot  # repro.gateway imports this module

    leaves = cluster.leaves
    disk = [leaf.disk.utilization() for leaf in leaves]
    cpu = [leaf.cpu.utilization() for leaf in leaves]
    links = cluster.net.links()
    index = cluster.aggregate_index_stats()
    jobs = cluster.master.job_manager
    m: Dict[str, float] = {
        "sim_time_s": cluster.sim.now,
        "leaves_alive": sum(leaf.alive for leaf in leaves),
        "leaves_total": len(leaves),
        "disk_mean_utilization": sum(disk) / len(leaves) if leaves else 0.0,
        "disk_max_utilization": max(disk, default=0.0),
        "disk_total_bytes": float(sum(leaf.disk.bytes_read for leaf in leaves)),
        "cpu_mean_utilization": sum(cpu) / len(leaves) if leaves else 0.0,
        "cpu_max_utilization": max(cpu, default=0.0),
        "network_busiest_link_utilization": max(
            (ln.utilization() for ln in links), default=0.0
        ),
        "network_total_bytes": float(sum(ln.bytes_carried for ln in links)),
        "index_entries": sum(
            leaf.index_manager.entry_count for leaf in leaves if leaf.index_manager is not None
        ),
        "index_memory_bytes": cluster.index_memory_used(),
        "index_hit_rate": (
            (index.hits + index.complement_hits) / index.lookups if index.lookups else 0.0
        ),
        "jobs_total": jobs.jobs_total,
        "jobs_succeeded": jobs.finished_by_status[JobStatus.SUCCEEDED],
        "jobs_failed": jobs.finished_by_status[JobStatus.FAILED],
        "jobs_timed_out": jobs.finished_by_status[JobStatus.TIMED_OUT],
        "tasks_completed": sum(leaf.tasks_completed for leaf in leaves),
        "heartbeats_received": cluster.cluster_manager.heartbeats_received,
        "jobs_queued": cluster.master.queued_jobs,
        "results_spilled": jobs.results_spilled,
    }
    gateway = cluster.gateway
    snapshot = gateway.snapshot() if gateway is not None else GatewaySnapshot()
    m.update(counters(snapshot, "gateway_"))
    elastic = cluster.elastic
    if elastic is not None:
        m.update(counters(elastic.rebalancer.stats, "rebalance_"))
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
        self.samples: List[Dict[str, float]] = []
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
            while self.samples and self.samples[0]["sim_time_s"] < cutoff:
                self.samples.pop(0)
                self.samples_evicted += 1

    def latest(self) -> Optional[Dict[str, float]]:
        return self.samples[-1] if self.samples else None

    def series(self, key: str) -> List[float]:
        """One metric's values across the retained samples."""
        return [s[key] for s in self.samples]

    def timestamps(self) -> List[float]:
        return [s["sim_time_s"] for s in self.samples]

    def export(self) -> List[Dict[str, float]]:
        """JSON-ready list of sample dicts (benchmark-harness surface)."""
        return [dict(s) for s in self.samples]
