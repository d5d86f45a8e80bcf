"""Gateway sessions and query handles (S52).

A :class:`GatewaySession` is one authenticated user connection: it
carries the user's credential, a per-session :class:`QueryHistory`, and
the set of query handles it has submitted.  A :class:`GatewayQuery` is
the client's view of one submission as it moves through the gateway —
queued under admission control, emitted to the master, resolved with a
result or an error.  Both live entirely on the simulated clock.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Optional

from repro.client.history import QueryHistory
from repro.cluster.jobs import Job, JobOptions
from repro.engine.executor import QueryResult
from repro.errors import FeisuError, SessionClosedError
from repro.security.auth import Credential
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gateway.gateway import SQLGateway


class QueryStatus(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    KILLED = "killed"
    TIMED_OUT = "timed_out"


#: Statuses from which a query can no longer move.
TERMINAL = (
    QueryStatus.SUCCEEDED,
    QueryStatus.FAILED,
    QueryStatus.KILLED,
    QueryStatus.TIMED_OUT,
)


class SessionState(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"
    KILLED = "killed"


class GatewayQuery:
    """One submission's lifecycle through the gateway.

    ``done`` fires exactly once, when the query reaches a terminal
    status — whether it ran, was rejected by the master's entry guard at
    emission, was killed with its session, or timed out while still
    queued.  Its value is that :class:`QueryStatus`, not the handle: an
    event holding the handle that holds it would keep a dropped handle,
    its job and its result rows alive until a cycle collection.
    """

    __slots__ = (
        "query_id",
        "session",
        "sql",
        "options",
        "cost_units",
        "memory_bytes",
        "submitted_at",
        "emitted_at",
        "finished_at",
        "status",
        "job",
        "error",
        "done",
        "timeout_s",
        "_kill_reason",
    )

    def __init__(
        self,
        query_id: str,
        session: "GatewaySession",
        sql: str,
        options: JobOptions,
        cost_units: float,
        memory_bytes: float,
        submitted_at: float,
        done: Event,
        timeout_s: Optional[float],
    ):
        self.query_id = query_id
        self.session = session
        self.sql = sql
        self.options = options
        self.cost_units = cost_units
        self.memory_bytes = memory_bytes
        self.submitted_at = submitted_at
        self.emitted_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.status = QueryStatus.QUEUED
        self.job: Optional[Job] = None
        self.error: Optional[BaseException] = None
        self.done = done
        self.timeout_s = timeout_s
        #: Set before cancelling the underlying job so the completion
        #: callback can tell a kill/timeout from an organic failure.
        self._kill_reason = None

    # -- derived views ----------------------------------------------------

    @property
    def user(self) -> str:
        return self.session.user

    @property
    def tenant(self) -> str:
        return self.session.tenant

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL

    @property
    def queue_wait_s(self) -> float:
        """Simulated seconds spent under admission control."""
        if self.emitted_at is None:
            end = self.finished_at if self.finished_at is not None else self.submitted_at
            return end - self.submitted_at
        return self.emitted_at - self.submitted_at

    @property
    def service_s(self) -> float:
        """Simulated seconds the cluster worked on the query."""
        if self.emitted_at is None or self.finished_at is None:
            return 0.0
        return self.finished_at - self.emitted_at

    @property
    def total_s(self) -> float:
        """Submission-to-resolution simulated latency (wait + service)."""
        if self.finished_at is None:
            return 0.0
        return self.finished_at - self.submitted_at

    def result(self) -> QueryResult:
        """The query result; raises the query's error if it failed."""
        if not self.terminal:
            raise FeisuError(f"{self.query_id} has not finished (status {self.status.value})")
        if self.error is not None:
            raise self.error
        assert self.job is not None and self.job.result is not None
        return self.job.result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GatewayQuery {self.query_id} {self.tenant}/{self.user} {self.status.value}>"


class GatewaySession:
    """One user's authenticated handle onto the gateway."""

    def __init__(
        self,
        gateway: "SQLGateway",
        session_id: str,
        user: str,
        tenant: str,
        credential: Credential,
    ):
        self.gateway = gateway
        self.session_id = session_id
        self.user = user
        self.tenant = tenant
        self.credential = credential
        self.state = SessionState.OPEN
        self.opened_at = gateway.cluster.sim.now
        #: Per-session query history (private SmartIndex personalization,
        #: same structure the client-end keeps).
        self.history = QueryHistory()
        #: Every handle this session submitted, in submission order.
        self.queries: List[GatewayQuery] = []

    # -- submission -------------------------------------------------------

    def submit(
        self,
        sql: str,
        options: Optional[JobOptions] = None,
        timeout_s: Optional[float] = None,
    ) -> GatewayQuery:
        """Pre-flight, enqueue under admission control, return a handle.

        Raises synchronously on syntax errors, ACL denial, a closed
        session, or a full tenant queue; otherwise the returned handle's
        ``done`` event resolves once the query reaches a terminal state.
        """
        if self.state is not SessionState.OPEN:
            raise SessionClosedError(
                f"session {self.session_id} is {self.state.value}; open a new session"
            )
        return self.gateway._submit(self, sql, options, timeout_s)  # noqa: SLF001

    def query(
        self,
        sql: str,
        options: Optional[JobOptions] = None,
        timeout_s: Optional[float] = None,
    ) -> QueryResult:
        """Submit and drive the simulation until the query resolves.

        Single-session convenience only — concurrent drivers submit
        handles and run the simulation themselves.
        """
        handle = self.submit(sql, options, timeout_s)
        self.gateway.cluster.sim.run_until_complete(handle.done)
        return handle.result()

    # -- lifecycle --------------------------------------------------------

    def active_queries(self) -> List[GatewayQuery]:
        return [q for q in self.queries if not q.terminal]

    def close(self) -> None:
        """Stop accepting submissions; in-flight queries finish normally."""
        if self.state is SessionState.OPEN:
            self.state = SessionState.CLOSED
            self.gateway._retire_session(self)  # noqa: SLF001

    def kill(self) -> int:
        """Tear the session down: queued queries resolve ``KILLED``
        immediately, running ones are cancelled at the master (their
        slots release through the normal completion path).  Returns how
        many queries were killed."""
        return self.gateway.kill_session(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GatewaySession {self.session_id} {self.tenant}/{self.user} {self.state.value}>"
