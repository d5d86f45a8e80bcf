"""Exception hierarchy shared by every Feisu subsystem.

All exceptions raised by this package derive from :class:`FeisuError`, so
callers can catch one base class at the public API boundary.  Subsystems
raise the most specific subclass that describes the failure; nothing in
this package raises bare ``Exception``.
"""

from __future__ import annotations


class FeisuError(Exception):
    """Base class for every error raised by the Feisu reproduction."""


class ParseError(FeisuError):
    """The SQL text could not be tokenized or parsed.

    Carries the offending position so clients (which perform syntax
    checking before submission, per the paper's client design) can point
    at the error.
    """

    def __init__(self, message: str, position: int = -1, text: str = ""):
        super().__init__(message)
        self.position = position
        self.text = text

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.position >= 0:
            return f"{base} (at offset {self.position})"
        return base


class AnalysisError(FeisuError):
    """The query parsed but failed semantic analysis (unknown table/column,
    type mismatch, aggregate misuse, ...)."""


class PlanError(FeisuError):
    """The planner could not produce a physical plan for the query."""


class ExecutionError(FeisuError):
    """A task failed while executing a (sub-)plan on a leaf server."""


class IntegerOverflowError(ExecutionError):
    """An integer SUM left int64: sqlite's "integer overflow".  It is the
    data's answer, the same on every leaf, so a job whose task raised it
    fails with it rather than as a timeout."""


class StorageError(FeisuError):
    """Base class for storage-substrate failures."""


class PathError(StorageError):
    """A path does not exist or its prefix maps to no registered plugin."""


class AccessDeniedError(FeisuError):
    """Authentication or authorization failed for the requesting user."""


class QuotaExceededError(AccessDeniedError):
    """The user's query or resource quota is exhausted (entry guard)."""


class SchedulingError(FeisuError):
    """The job scheduler could not place a task on any live worker."""


class ClusterStateError(FeisuError):
    """An operation was attempted against a worker or master in the wrong
    lifecycle state (e.g. dispatching to a decommissioned leaf)."""


class QueryTimeout(FeisuError):
    """The query exceeded its configured time budget.

    When the user configured a ``min_processed_ratio`` the engine returns
    partial results instead of raising; this exception is raised only when
    not even the minimum ratio completed in time.
    """

    def __init__(self, message: str, processed_ratio: float = 0.0):
        super().__init__(message)
        self.processed_ratio = processed_ratio


class QueryCancelled(FeisuError):
    """The user cancelled the job before it finished."""


class GatewayOverloadedError(FeisuError):
    """The gateway rejected a submission: the tenant's admission queue is
    at its configured depth (back-pressure instead of unbounded backlog)."""


class SessionClosedError(FeisuError):
    """A submission arrived on a gateway session that was closed or
    killed; open a new session to continue."""


class IndexError_(FeisuError):
    """SmartIndex bookkeeping failure (corrupt entry, schema mismatch)."""


class FaultInjectedError(FeisuError):
    """A message or operation was killed by the fault-injection layer.

    Raised (after the plan's RPC timeout) in place of a delivery that a
    :class:`repro.faults.FaultPlan` dropped or partitioned away, so
    recovery machinery sees the same sender-side failure a real RPC
    timeout would produce.
    """


class InvariantViolation(FeisuError):
    """A cluster-wide invariant was broken during a chaos scenario.

    Carries the full violation report; the chaos harness attaches the
    scenario seed so the failure is replayable.
    """
