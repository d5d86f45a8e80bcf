"""The multi-tenant SQL gateway front-end (S52).

The paper's client-end checks syntax and access rights per user; serving
production traffic additionally needs the piece in *front* of the master
that Twitter's hybrid-cloud SQL architecture calls the gateway: session
management, per-tenant admission queues, and fair-share emission against
resource agreements.  :class:`SQLGateway` is that component on the
simulated clock:

* :meth:`open_session` authenticates a user and returns a
  :class:`~repro.gateway.session.GatewaySession`;
* ``session.submit`` pre-flights (syntax + ACL), estimates cost and
  memory from the physical plan, and enqueues under admission control;
* an event-driven pump emits queries to the (reentrant) master whenever
  budgets free up, in weighted deficit-round-robin order across tenants;
* kill and per-query timeout resolve handles at any lifecycle stage,
  always releasing their slots through the one completion path.

The gateway holds no background processes: with no traffic it adds zero
simulation events, so a configured-but-idle gateway never perturbs
committed figure results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.jobs import JobOptions, JobStatus
from repro.errors import FeisuError, QueryCancelled, QueryTimeout
from repro.gateway.admission import AdmissionController, estimate_query_memory
from repro.gateway.config import GatewayConfig
from repro.gateway.fairshare import TenantQueue, outcome_counts
from repro.gateway.session import (
    GatewayQuery,
    GatewaySession,
    QueryStatus,
    SessionState,
)
from repro.planner.physical import scan_blocks
from repro.sim.events import Event
from repro.sql.analyzer import analyze_sql


@dataclass
class TenantSnapshot:
    """Point-in-time view of one tenant's serving state."""

    tenant: str
    queue_depth: int
    running: int
    admitted: int
    rejected: int
    completed: int
    failed: int
    killed: int
    timed_out: int
    served_units: float
    memory_in_use: float


@dataclass
class GatewaySnapshot:
    """Point-in-time view of the whole gateway (metrics surface: its
    numeric fields, in this order, are ``cluster.metrics()``'s
    ``gateway_*`` keys)."""

    sessions_open: int = 0
    queue_depth: int = 0
    running: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    killed: int = 0
    timed_out: int = 0
    memory_in_use: float = 0.0
    tenants: Dict[str, TenantSnapshot] = field(default_factory=dict)


class SQLGateway:
    """Serving front-end over one :class:`~repro.core.feisu.FeisuCluster`."""

    def __init__(self, cluster, config: Optional[GatewayConfig] = None):
        self.cluster = cluster
        self.config = config or GatewayConfig()
        if self.config.total_slots < 1:
            raise ValueError("total_slots must be at least 1")
        if self.config.total_slots > cluster.master.max_concurrent_jobs:
            raise ValueError(
                f"gateway total_slots ({self.config.total_slots}) exceeds the master's "
                f"max_concurrent_jobs ({cluster.master.max_concurrent_jobs}); the master's "
                "FIFO candidate queue would re-order fair-share emissions"
            )
        self.admission = AdmissionController(self.config)
        #: Live sessions — open, or closed with queries still to resolve —
        #: and their handles by id.  A closed session whose last query has
        #: resolved leaves both (handles the caller holds keep working).
        self.sessions: Dict[str, GatewaySession] = {}
        self.queries: Dict[str, GatewayQuery] = {}
        self._session_ids = itertools.count()
        self._query_ids = itertools.count()

    # -- sessions ---------------------------------------------------------

    def open_session(self, user: str, tenant: Optional[str] = None) -> GatewaySession:
        """Authenticate ``user`` and open a session under ``tenant``
        (defaults to a tenant named after the user)."""
        cred = self.cluster.credential_of(user)
        self.cluster.authority.validate(cred, now=self.cluster.sim.now)
        session = GatewaySession(
            self,
            session_id=f"sess-{next(self._session_ids)}",
            user=user,
            tenant=tenant if tenant is not None else user,
            credential=cred,
        )
        self.sessions[session.session_id] = session
        # First contact registers the tenant's queue with its policy.
        self.admission.tenant(session.tenant)
        return session

    def open_sessions(self) -> List[GatewaySession]:
        return [s for s in self.sessions.values() if s.state is SessionState.OPEN]

    def _retire_session(self, session: GatewaySession) -> None:
        """Forget ``session`` and its handles once it is closed and every
        query it submitted is terminal.  The session lets go of its
        handles too (they keep pointing at it, not it at them), so what
        the caller no longer holds is freed without waiting for a cycle
        collection."""
        if session.state is SessionState.OPEN or session.active_queries():
            return
        if self.sessions.pop(session.session_id, None) is not None:
            for query in session.queries:
                self.queries.pop(query.query_id, None)
            session.queries.clear()

    # -- submission (called via GatewaySession.submit) --------------------

    def _submit(
        self,
        session: GatewaySession,
        sql: str,
        options: Optional[JobOptions],
        timeout_s: Optional[float],
    ) -> GatewayQuery:
        sim = self.cluster.sim
        # Client-end pre-flight: options, syntax and ACL fail
        # synchronously, so bad requests never occupy queue space
        # (§III-C).  The statement stays cached for the master to find at
        # emission.
        if options is not None:
            options.validate()
        analyzed = analyze_sql(sql, self.cluster.catalog)
        self.cluster.acl.check_read(session.user, analyzed.table_names)
        # Priced from the blocks a plan would scan; the master plans the
        # query once, when it is emitted.
        blocks, _ = scan_blocks(analyzed)
        tq = self.admission.tenant(session.tenant)
        if timeout_s is None:
            timeout_s = tq.policy.query_timeout_s
        query_id = f"gq-{next(self._query_ids)}"
        query = GatewayQuery(
            query_id=query_id,
            session=session,
            sql=sql,
            options=options or JobOptions(),
            cost_units=float(max(1, len(blocks))),
            memory_bytes=estimate_query_memory(analyzed, blocks, self.cluster.catalog),
            submitted_at=sim.now,
            done=sim.event(name=f"{query_id}.done"),
            timeout_s=timeout_s,
        )
        self.admission.enqueue(tq, query)  # raises GatewayOverloadedError when full
        tq.note_backlog(sim.now)
        self.queries[query.query_id] = query
        session.queries.append(query)
        session.history.record(sim.now, session.user, sql, analyzed)
        if timeout_s is not None:
            sim.schedule(timeout_s, self._expire, query)
        self._pump()
        return query

    # -- emission ---------------------------------------------------------

    def _pump(self) -> None:
        """Emit queries while budgets and fair share allow."""
        while True:
            pick = self.admission.next()
            if pick is None:
                return
            self._emit(*pick)

    def _emit(self, tq: TenantQueue, query: GatewayQuery) -> None:
        sim = self.cluster.sim
        if tq.depth == 0:
            tq.note_drain(sim.now)
        self.admission.on_emit(tq, query)
        query.emitted_at = sim.now
        query.status = QueryStatus.RUNNING
        try:
            # The master re-validates at emission time (credential
            # lifetime, rate limits, per-user quotas) — the entry
            # guard's books stay authoritative.
            job, done = self.cluster.master.submit(
                query.sql,
                query.user,
                query.session.credential,
                query.options,
            )
        except FeisuError as exc:
            self.admission.on_release(tq, query)
            self._resolve(tq, query, QueryStatus.FAILED, exc)
            return
        query.job = job
        done.add_callback(lambda ev: self._on_job_done(tq, query, ev))

    def _on_job_done(self, tq: TenantQueue, query: GatewayQuery, ev: Event) -> None:
        """The single resolution point for every emitted query."""
        job = ev.value  # the master always resolves `done` with the job
        self.admission.on_release(tq, query)
        kill = query._kill_reason  # noqa: SLF001
        if kill is not None and job.status is not JobStatus.SUCCEEDED:
            status, error = kill
        elif job.status is JobStatus.SUCCEEDED:
            status, error = QueryStatus.SUCCEEDED, None
        elif job.status is JobStatus.TIMED_OUT:
            status, error = QueryStatus.TIMED_OUT, job.error
        else:
            status, error = QueryStatus.FAILED, job.error
        self._resolve(tq, query, status, error)
        self._pump()

    def _resolve(
        self,
        tq: TenantQueue,
        query: GatewayQuery,
        status: QueryStatus,
        error: Optional[BaseException],
    ) -> None:
        query.status = status
        query.error = error
        query.finished_at = self.cluster.sim.now
        if status is QueryStatus.SUCCEEDED:
            tq.completed += 1
        elif status is QueryStatus.KILLED:
            tq.killed += 1
        elif status is QueryStatus.TIMED_OUT:
            tq.timed_out += 1
        else:
            tq.failed += 1
        query.done.succeed(status)
        self._retire_session(query.session)

    # -- kill & timeout ---------------------------------------------------

    def kill_query(
        self, query: "GatewayQuery | str", reason: Optional[BaseException] = None
    ) -> bool:
        """Kill one query (handle or query id) at any stage; returns
        False if already terminal or the id is unknown."""
        if isinstance(query, str):
            found = self.queries.get(query)
            if found is None:
                return False
            query = found
        if query.terminal:
            return False
        if reason is None:
            reason = QueryCancelled(f"{query.query_id} killed by the gateway")
        return self._kill(query, QueryStatus.KILLED, reason)

    def kill_session(self, session: GatewaySession) -> int:
        session.state = SessionState.KILLED
        killed = 0
        for query in session.active_queries():
            if self.kill_query(
                query, QueryCancelled(f"session {session.session_id} killed")
            ):
                killed += 1
        self._retire_session(session)
        return killed

    def _expire(self, query: GatewayQuery) -> None:
        """Timeout callback: resolve a still-unfinished query TIMED_OUT."""
        if query.terminal:
            return
        exc = QueryTimeout(
            f"{query.query_id} exceeded its {query.timeout_s}s gateway timeout"
        )
        self._kill(query, QueryStatus.TIMED_OUT, exc)

    def _kill(self, query: GatewayQuery, status: QueryStatus, reason: BaseException) -> bool:
        """End an unfinished query as ``status`` (KILLED or TIMED_OUT);
        False if its job finished first."""
        tq = self.admission.tenant(query.tenant)
        if query.status is QueryStatus.QUEUED:
            tq.remove(query)
            if tq.depth == 0:
                tq.note_drain(self.cluster.sim.now)
            self._resolve(tq, query, status, reason)
            self._pump()
            return True
        # Running: mark intent, cancel at the master; the completion
        # callback releases the slot and resolves the handle.
        query._kill_reason = (status, reason)  # noqa: SLF001
        assert query.job is not None
        if not self.cluster.master.cancel(query.job.job_id):
            query._kill_reason = None  # noqa: SLF001 - finished first
            return False
        return True

    # -- draining & introspection -----------------------------------------

    def in_flight(self) -> int:
        return self.admission.queue_depth() + self.admission.running

    def run_until_drained(self, limit: float = float("inf")) -> None:
        """Drive the simulation until no query is queued or running."""
        sim = self.cluster.sim
        while self.in_flight() > 0:
            if not sim.step():
                raise FeisuError("gateway deadlock: queries pending but no events queued")
            if sim.now > limit:
                raise FeisuError(f"gateway drain exceeded the {limit}s limit")

    def snapshot(self) -> GatewaySnapshot:
        tenants = list(self.admission.tenants())
        return GatewaySnapshot(
            sessions_open=len(self.open_sessions()),
            queue_depth=self.admission.queue_depth(),
            running=self.admission.running,
            memory_in_use=self.admission.memory_in_use,
            tenants={
                tq.name: TenantSnapshot(
                    tenant=tq.name,
                    queue_depth=tq.depth,
                    running=tq.running,
                    served_units=tq.served_units,
                    memory_in_use=tq.memory_in_use,
                    **outcome_counts([tq]),
                )
                for tq in tenants
            },
            **outcome_counts(tenants),
        )
