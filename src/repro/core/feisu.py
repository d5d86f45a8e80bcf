"""Public API: a self-contained simulated Feisu deployment.

:class:`FeisuCluster` wires the full stack of DESIGN.md's inventory —
topology and network model, heterogeneous storage substrates behind the
common storage layer, security, catalog, master/stem/leaf tree — into
one object with a small surface:

    >>> cluster = FeisuCluster(FeisuConfig(nodes_per_rack=4))
    >>> cluster.load_table("T", schema, columns)          # doctest: +SKIP
    >>> result = cluster.query("SELECT COUNT(*) FROM T")  # doctest: +SKIP

Queries compute real answers; response times come from the simulated
clock and are exposed in ``result.stats["response_time_s"]``.  A task
reads its block from the path the catalog names, every replica holds
the same bytes, and SSD cache preferences are set by hand (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.cluster.jobs import Job, JobOptions
from repro.cluster.master import EntryGuard, Master
from repro.cluster.membership import ClusterManager
from repro.cluster.metrics import MetricsTimeSeries, collect_metrics, summed
from repro.cluster.node import LeafConfig, LeafServer, StemServer
from repro.cluster.scheduler import JobScheduler
from repro.columnar.schema import Schema
from repro.columnar.table import Catalog, Table
from repro.storage.loader import store_table_striped
from repro.engine.executor import QueryResult
from repro.errors import FeisuError, StorageError
from repro.index.smartindex import IndexStats
from repro.planner.cost import CostModel
from repro.security.acl import AccessControl, QuotaPolicy
from repro.security.auth import Credential, SSOAuthority
from repro.sim.events import Event, Simulator
from repro.sim.netmodel import NetworkTopology, NodeAddress, TopologySpec
from repro.storage.router import StorageRouter
from repro.storage.systems import DistributedFS, FatmanFS, KeyValueStore, LocalFS


@dataclass
class FeisuConfig:
    """Shape and feature switches for a simulated deployment."""

    datacenters: int = 1
    racks_per_datacenter: int = 2
    nodes_per_rack: int = 8
    leaf: LeafConfig = field(default_factory=LeafConfig)
    #: Production rows represented by each materialized row (DESIGN.md §1).
    default_scale_factor: float = 1.0
    seed: int = 17
    #: Locality-aware scheduling (ablation switch).
    locality_aware: bool = True
    #: Reuse window for completed identical tasks (0 = running jobs only).
    reuse_completed_window_s: float = 0.0
    #: Multi-tenant SQL gateway (S52).  ``None`` (the default) builds no
    #: gateway at all — no extra objects, no simulation events — so
    #: committed figure results stay byte-identical; set a
    #: :class:`repro.gateway.GatewayConfig` to serve sessions through
    #: admission control and fair-share scheduling.
    gateway: Optional["object"] = None
    #: Elastic membership and rebalancing (S55).  ``None`` (the default)
    #: constructs no daemon and adds no simulation events — committed
    #: figure results stay byte-identical; set a
    #: :class:`repro.cluster.elastic.ElasticConfig` and the cluster gains
    #: node join/decommission, a rebalancer and placement-aware replica
    #: repair.
    elastic: Optional["object"] = None

    def topology(self) -> TopologySpec:
        return TopologySpec(self.datacenters, self.racks_per_datacenter, self.nodes_per_rack)


class FeisuCluster:
    """A fully wired Feisu deployment on the simulated cluster."""

    def __init__(self, config: Optional[FeisuConfig] = None):
        self.config = config or FeisuConfig()
        self.sim = Simulator()
        spec = self.config.topology()
        self.net = NetworkTopology(self.sim, spec)
        self.nodes = spec.addresses()

        # Storage substrates (§II): two HDFS systems — the experiments'
        # storage A and B (Table I) — plus local FS, Fatman and KV store.
        self.local_fs = LocalFS(self.nodes)
        self.storage_a = DistributedFS(
            self.nodes, name="storage-a", seed=self.config.seed, domain="hdfs-a"
        )
        self.storage_b = DistributedFS(
            self.nodes, name="storage-b", seed=self.config.seed + 1, domain="hdfs-b"
        )
        self.storage_b.scheme = "hdfs2"
        self.fatman = FatmanFS(self.nodes, seed=self.config.seed + 2)
        self.kv = KeyValueStore(self.nodes)
        self.authority = SSOAuthority()
        self.router = StorageRouter(self.authority)
        self.router.register(self.local_fs, default=True)
        self.router.register(self.storage_a)
        self.router.register(self.storage_b)
        self.router.register(self.fatman)
        self.router.register(self.kv)

        self.catalog = Catalog()
        self.acl = AccessControl()
        self.quota = QuotaPolicy()
        self.entry_guard = EntryGuard(self.authority, self.acl, self.quota)

        self.cluster_manager = ClusterManager(self.sim)
        self.scheduler = JobScheduler(
            self.cluster_manager,
            self.net,
            self.router,
            CostModel(),
            locality_aware=self.config.locality_aware,
        )
        # Explicit re-admission: a worker heartbeating back after being
        # declared dead is surfaced to the scheduler, not silently revived.
        self.cluster_manager.on_readmit(self.scheduler.note_readmission)
        from repro.cluster.ledger import JobLedger

        self.job_ledger = JobLedger(self.sim)
        self.master = self._make_master()

        self.leaves: List[LeafServer] = []
        self.stems: List[StemServer] = []
        for addr in self.nodes:
            leaf = LeafServer(
                self.sim,
                worker_id=f"leaf-{addr}",
                address=addr,
                net=self.net,
                router=self.router,
                cluster_manager=self.cluster_manager,
                config=replace(self.config.leaf),
            )
            self.leaves.append(leaf)
            self.scheduler.register_leaf(leaf)
            if addr.node == 0:
                stem = StemServer(
                    self.sim,
                    worker_id=f"stem-{addr}",
                    address=addr,
                    net=self.net,
                    cluster_manager=self.cluster_manager,
                )
                self.stems.append(stem)
                self.master.register_stem(stem)
            # Multi-datacenter deployments add a dc-level aggregation
            # layer above the rack stems (deeper server tree, §III-B).
            if (
                self.config.datacenters > 1
                and addr.rack == 0
                and addr.node == min(1, self.config.nodes_per_rack - 1)
            ):
                dc_stem = StemServer(
                    self.sim,
                    worker_id=f"dcstem-{addr}",
                    address=addr,
                    net=self.net,
                    cluster_manager=self.cluster_manager,
                )
                self.stems.append(dc_stem)
                self.master.register_dc_stem(dc_stem)

        #: Elastic membership + rebalancing (S55); constructed only when
        #: configured, so the default deployment is untouched.
        self.elastic = None
        if self.config.elastic is not None:
            from repro.cluster.elastic import ElasticityManager

            self.elastic = ElasticityManager(self, self.config.elastic)
            self.elastic.start()

        # Cross-domain metadata sharing (§I): every datacenter keeps a
        # directory replica of schemas and grants, synced periodically.
        from repro.cluster.domains import CrossDomainDirectory

        self.domain_directory = CrossDomainDirectory(
            self.sim, self.net, datacenters=self.config.datacenters
        )
        self.domain_directory.start()

        #: Fault-injection layer (None = fault-free; every interception
        #: point is behind an ``is not None`` guard, so this costs nothing).
        self.fault_injector = None
        for leaf in self.leaves:
            self.wire_leaf(leaf)

        self._credentials: Dict[str, Credential] = {}
        self._default_user = "analyst"
        self.create_user(self._default_user, admin=True)

        #: Multi-tenant SQL gateway (S52); constructed only when the
        #: config carries a :class:`~repro.gateway.GatewayConfig` so the
        #: direct ``cluster.query()`` path is untouched by default.
        self.gateway = None
        if self.config.gateway is not None:
            from repro.gateway import SQLGateway

            self.gateway = SQLGateway(self, self.config.gateway)

    def wire_leaf(self, leaf: LeafServer) -> None:
        """Give ``leaf`` the cluster's heat and fault hooks (at
        construction and when a node joins): its reads feed the elastic
        rebalancer's heat tracker when elastic is configured."""
        leaf.faults = self.fault_injector
        if self.elastic is not None:
            leaf.heat = self.elastic.heat

    def install_faults(self, plan, seed: int = 0):
        """Install a :class:`~repro.faults.plan.FaultPlan` on this cluster.

        Lazily imports the fault layer so fault-free deployments never
        load it; returns the :class:`~repro.faults.injector.FaultInjector`
        (its ``records`` log is the scenario's replayable fingerprint).
        """
        from repro.faults.injector import FaultInjector

        self.fault_injector = FaultInjector(self.sim, plan, seed=seed).install(self)
        return self.fault_injector

    def _make_master(self) -> Master:
        return Master(
            self.sim,
            self.net,
            self.router,
            self.catalog,
            self.cluster_manager,
            self.scheduler,
            self.entry_guard,
            address=NodeAddress(0, 0, 0),
            reuse_completed_window_s=self.config.reuse_completed_window_s,
            service_credential=self.authority.issue(
                "feisu-master",
                [s.domain for s in self.router.systems()],
                ttl_s=10 * 365 * 86400.0,
            ),
            ledger=self.job_ledger,
        )

    def fail_master(self) -> int:
        """Crash the primary master and promote its backup (§III-C).

        In-flight jobs fail over to their clients (``job.error`` set;
        resubmit to continue); the job ledger's shadow replays the
        operations log, so history survives; a fresh master — already
        holding the replicated state — takes over immediately.  Returns
        the number of aborted jobs.
        """
        aborted = self.master.shutdown()
        self.job_ledger.fail_primary()
        old = self.master
        self.master = self._make_master()
        for stem in self.stems:
            if stem.worker_id.startswith("dcstem-"):
                self.master.register_dc_stem(stem)
            else:
                self.master.register_stem(stem)
        # Historical job records carry over through the ledger; the old
        # master's in-memory registry is gone with the process.
        del old
        return aborted

    # -- users & security ----------------------------------------------------

    def all_domains(self) -> List[str]:
        return [s.domain for s in self.router.systems()]

    def create_user(
        self,
        user: str,
        domains: Optional[List[str]] = None,
        admin: bool = False,
        tables: Optional[List[str]] = None,
    ) -> Credential:
        """Issue an SSO credential; grants table rights per arguments."""
        cred = self.authority.issue(
            user, domains if domains is not None else self.all_domains(), now=self.sim.now
        )
        self._credentials[user] = cred
        if admin:
            self.acl.make_admin(user)
        for table in tables or []:
            self.acl.grant(user, table)
            self.domain_directory.publish_grant(user, table)
        return cred

    def credential_of(self, user: str) -> Credential:
        try:
            return self._credentials[user]
        except KeyError:
            raise FeisuError(f"unknown user {user!r}; call create_user first") from None

    # -- data loading -------------------------------------------------------------

    def storage_by_name(self, name: str):
        for system in self.router.systems():
            if system.name == name or system.scheme == name:
                return system
        raise StorageError(f"no storage system named {name!r}")

    def load_table(
        self,
        name: str,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        storage: str = "storage-a",
        block_rows: int = 8192,
        scale_factor: Optional[float] = None,
        node: Optional[NodeAddress] = None,
        description: str = "",
    ) -> Table:
        """Convert columns into blocks on a storage system and register
        the table (the §III light-weight ingestion process, in bulk)."""
        return self.load_table_striped(
            name,
            schema,
            columns,
            [storage],
            block_rows=block_rows,
            scale_factor=scale_factor,
            description=description,
            node=node,
        )

    def load_table_striped(
        self,
        name: str,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        storages: List[str],
        block_rows: int = 8192,
        scale_factor: Optional[float] = None,
        description: str = "",
        node: Optional[NodeAddress] = None,
    ) -> Table:
        """One logical table striped block-by-block across several
        storage systems — the heterogeneous-integration case in one
        table (e.g. ``storages=["storage-a", "fatman"]``).  ``node`` is
        a placement hint passed to every block write."""
        table = store_table_striped(
            name,
            schema,
            columns,
            self.router,
            [self.storage_by_name(s) for s in storages],
            block_rows=block_rows,
            scale_factor=(
                scale_factor if scale_factor is not None else self.config.default_scale_factor
            ),
            catalog=self.catalog,
            description=description,
            node=node,
        )
        self.domain_directory.publish_table(name, schema.to_dict())
        return table

    # -- querying ------------------------------------------------------------------

    def submit(
        self,
        sql: str,
        user: Optional[str] = None,
        options: Optional[JobOptions] = None,
    ) -> "tuple[Job, Event]":
        """Asynchronous submission (drive ``sim`` yourself)."""
        user = user or self._default_user
        return self.master.submit(sql, user, self._credentials.get(user), options)

    def query(
        self,
        sql: str,
        user: Optional[str] = None,
        options: Optional[JobOptions] = None,
    ) -> QueryResult:
        """Submit a query and run the simulation until it finishes.

        Returns the result with ``stats["response_time_s"]`` set from the
        simulated clock; raises the job's error on failure/timeout.
        """
        job = self.query_job(sql, user, options)
        if job.error is not None:
            raise job.error
        assert job.result is not None
        return job.result

    def query_job(
        self,
        sql: str,
        user: Optional[str] = None,
        options: Optional[JobOptions] = None,
    ) -> Job:
        """Like :meth:`query` but returns the full job record."""
        job, done = self.submit(sql, user, options)
        self.sim.run_until_complete(done)
        return job

    # -- introspection -----------------------------------------------------------

    def aggregate_index_stats(self) -> IndexStats:
        """Sum of SmartIndex counters across every leaf."""
        return summed(
            (leaf.index_manager.stats for leaf in self.leaves if leaf.index_manager is not None),
            IndexStats,
        )

    def index_memory_used(self) -> int:
        return sum(
            leaf.index_manager.used_bytes
            for leaf in self.leaves
            if leaf.index_manager is not None
        )

    # -- S55 elastic membership --------------------------------------------

    def join_node(self, datacenter: int = 0, rack: int = 0) -> LeafServer:
        """Bring a new leaf into an existing rack (requires
        ``FeisuConfig.elastic``); returns the registered, heartbeating leaf."""
        if self.elastic is None:
            raise FeisuError("join_node requires FeisuConfig(elastic=ElasticConfig())")
        return self.elastic.join_node(datacenter, rack)

    def decommission(self, worker_id: str) -> Event:
        """Gracefully drain and remove a leaf (requires
        ``FeisuConfig.elastic``); returns the drain process event."""
        if self.elastic is None:
            raise FeisuError("decommission requires FeisuConfig(elastic=ElasticConfig())")
        return self.elastic.decommission(worker_id)

    def leaf_at(self, address: NodeAddress) -> LeafServer:
        leaf = self.scheduler.leaf_at(address)
        if leaf is None:
            raise FeisuError(f"no leaf at {address}")
        return leaf

    def metrics(self) -> Dict[str, float]:
        """Point-in-time monitoring snapshot (§III-C's shadow-served
        'monitoring running information')."""
        return collect_metrics(self)

    def start_metrics_sampler(self, period_s: float = 5.0, retention_s: float = 3600.0):
        """Start a rolling metrics time series (periodic snapshots with
        retention); returns the :class:`~repro.cluster.metrics.MetricsTimeSeries`.

        Opt-in: the sampler adds its own timer events to the simulation,
        so deployments that need bit-identical event ordering (the figure
        benchmarks) simply never start it.
        """
        self.metrics_series = MetricsTimeSeries(
            self, period_s=period_s, retention_s=retention_s
        ).start()
        return self.metrics_series

    def explain(self, sql: str) -> str:
        """Render the physical plan the master would produce for ``sql``."""
        from repro.planner.explain import explain as explain_plan
        from repro.planner.physical import build_plan
        from repro.sql.analyzer import analyze_sql

        return explain_plan(build_plan(analyze_sql(sql, self.catalog)))

    # -- §V-B resource consolidation --------------------------------------

    def reclaim_business_resources(self, storage: str, slots: int = 1) -> None:
        """Model high-priority online services claiming node resources:
        every leaf's Feisu slot pool for ``storage`` shrinks to ``slots``."""
        name = self.storage_by_name(storage).name
        for leaf in self.leaves:
            leaf.reclaim_slots(name, slots)

    def release_business_resources(self, storage: str) -> None:
        name = self.storage_by_name(storage).name
        for leaf in self.leaves:
            leaf.restore_slots(name)
