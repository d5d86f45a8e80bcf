"""The simulated Feisu cluster: masters, stems, leaves, scheduling."""

from repro.cluster.domains import CrossDomainDirectory
from repro.cluster.elastic import ElasticConfig, ElasticityManager, Rebalancer, RebalanceStats
from repro.cluster.failover import PrimaryBackup
from repro.cluster.jobs import Job, JobManager, JobOptions, JobStats, JobStatus, TaskTiming
from repro.cluster.ledger import JobLedger, LedgerEntry
from repro.cluster.master import EntryGuard, Master
from repro.cluster.membership import ClusterManager, WorkerRecord
from repro.cluster.messages import WorkerLoad
from repro.cluster.node import LeafConfig, LeafServer, StemServer
from repro.cluster.metrics import ClusterMetrics, collect_metrics
from repro.cluster.scheduler import JobScheduler, Placement
from repro.cluster.sharding import ShardedClusterManager

__all__ = [
    "ElasticConfig",
    "ElasticityManager",
    "Rebalancer",
    "RebalanceStats",
    "ClusterManager",
    "CrossDomainDirectory",
    "ClusterMetrics",
    "ShardedClusterManager",
    "collect_metrics",
    "EntryGuard",
    "Job",
    "JobManager",
    "JobOptions",
    "JobScheduler",
    "JobStats",
    "JobStatus",
    "JobLedger",
    "LedgerEntry",
    "TaskTiming",
    "LeafConfig",
    "LeafServer",
    "Master",
    "Placement",
    "PrimaryBackup",
    "StemServer",
    "WorkerLoad",
    "WorkerRecord",
]
