"""Jobs and the job manager (§III-C).

The job manager "maintains the running information of user query jobs"
and — the detail this module centres on — "tries to reuse other running
job's task result if tasks are identical" before a new job enters the
candidate queue.  Task identity is structural: same block, same scan
predicates, same projected columns, same aggregation fragment.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.engine.executor import QueryResult, TaskResult
from repro.obs.trace import Tracer
from repro.planner.physical import PhysicalPlan, ScanTask
from repro.sim.events import Event, Simulator

_job_counter = itertools.count()

#: Finished jobs the manager keeps reachable by id; older ones leave its
#: registry (a caller still holding the :class:`Job` keeps its result).
FINISHED_JOBS_RETAINED = 256


class JobStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMED_OUT = "timed_out"


@dataclass
class JobOptions:
    """User-visible execution knobs (§III-C fault-tolerance paragraph)."""

    #: Hard limit on total elapsed (simulated) seconds; None = unbounded.
    max_time_s: Optional[float] = None
    #: Return early once this fraction of tasks has completed (<1.0
    #: "avoid[s] long-tail influence"); also the floor below which a
    #: deadline expiry becomes a timeout error.
    min_processed_ratio: float = 1.0
    #: Launch speculative backup copies of straggling tasks.
    enable_backup: bool = True
    #: Results whose modeled size exceeds this are dumped to global
    #: storage and "only the location information is passed" (§V-C).
    spill_threshold_bytes: float = 1024**3
    #: Scan only this fraction of blocks, chosen deterministically —
    #: §II case 3's "periodically analyze sampled hot data to check the
    #: indicators".  The result's ``processed_ratio`` reports the actual
    #: fraction; aggregates are over the sample (indicators, not exact).
    sample_block_ratio: Optional[float] = None
    #: Collect a per-query span tree (``job.trace``).  Off by default:
    #: the disabled path allocates no spans at all.
    trace: bool = False

    def validate(self) -> None:
        """Raise ValueError naming the first set field no job can serve:
        a negative or NaN sample ratio or time limit."""
        for name in ("sample_block_ratio", "max_time_s"):
            value = getattr(self, name)
            if value is not None and not value >= 0.0:
                raise ValueError(f"JobOptions.{name} must be >= 0, got {value!r}")


@dataclass
class JobStats:
    """Aggregated execution counters for one job."""

    tasks_total: int = 0
    tasks_completed: int = 0
    tasks_reused: int = 0
    tasks_failed: int = 0
    backups_launched: int = 0
    results_spilled: int = 0
    pruned_blocks: int = 0
    io_bytes_modeled: float = 0.0
    cpu_ops_modeled: float = 0.0
    index_full_covers: int = 0
    index_clause_hits: int = 0
    index_clause_misses: int = 0
    response_time_s: float = 0.0

    def absorb(self, result: TaskResult) -> None:
        report = result.report
        self.tasks_completed += 1
        self.io_bytes_modeled += report.modeled_io_bytes
        self.cpu_ops_modeled += report.modeled_cpu_ops
        self.index_full_covers += int(report.index_full_cover)
        self.index_clause_hits += report.index_clause_hits
        self.index_clause_misses += report.index_clause_misses


@dataclass
class TaskTiming:
    """One task attempt's execution timeline entry (EXPLAIN ANALYZE)."""

    task_id: str
    worker_id: str
    started_at: float
    finished_at: float
    io_bytes_modeled: float
    cpu_ops_modeled: float
    index_full_cover: bool
    backup: bool = False

    @property
    def duration_s(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class Job:
    """One admitted query's lifecycle record."""

    job_id: str
    user: str
    sql: str
    plan: PhysicalPlan
    options: JobOptions
    submitted_at: float
    status: JobStatus = JobStatus.PENDING
    #: When the scheduler actually emitted the job (queueing delay =
    #: started_at - submitted_at, §III-C's candidate queue).
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[QueryResult] = None
    error: Optional[BaseException] = None
    stats: JobStats = field(default_factory=JobStats)
    #: Per-task-attempt execution records, in completion order.
    task_timeline: List[TaskTiming] = field(default_factory=list)
    #: Span tree over the simulated clock (None unless ``options.trace``).
    trace: Optional[Tracer] = None

    @property
    def response_time_s(self) -> float:
        end = self.finished_at if self.finished_at is not None else self.submitted_at
        return end - self.submitted_at


def new_job(user: str, sql: str, plan: PhysicalPlan, options: JobOptions, now: float) -> Job:
    job = Job(
        job_id=f"job-{next(_job_counter)}",
        user=user,
        sql=sql,
        plan=plan,
        options=options,
        submitted_at=now,
    )
    job.stats.tasks_total = len(plan.tasks)
    job.stats.pruned_blocks = plan.pruned_blocks
    if options.trace:
        job.trace = Tracer(job.job_id)
        job.trace.begin("job", now, sql=sql, user=user, tasks=len(plan.tasks))
    return job


def task_signature(plan: PhysicalPlan, task: ScanTask) -> Tuple:
    """Structural identity of a task: equal signatures ⇒ equal results."""
    scan_clauses, is_aggregate, agg_sig, post_filter, broadcast_sig = plan.shape.task_signature_base
    return (
        task.block.path,
        task.block.incarnation,
        scan_clauses,
        task.columns,
        is_aggregate,
        agg_sig,
        post_filter,
        broadcast_sig,
        plan.broadcast_incarnations,
    )


class JobManager:
    """Job registry plus the identical-task reuse cache.

    ``jobs`` holds every unfinished job and the last
    ``FINISHED_JOBS_RETAINED`` finished ones; what metrics report about
    *all* jobs ever served is kept as running totals.
    """

    def __init__(self, sim: Simulator, reuse_completed_window_s: float = 0.0):
        self.sim = sim
        #: How long a *finished* task result stays reusable.  The paper
        #: reuses results of running jobs; a nonzero window extends that
        #: to recently finished ones (ablation knob).
        self.reuse_completed_window_s = reuse_completed_window_s
        self.jobs: Dict[str, Job] = {}
        self._finished_ids: Deque[str] = deque()
        self.jobs_total = 0
        #: Terminal jobs by status, over the master's whole life.
        self.finished_by_status: Dict[JobStatus, int] = {
            JobStatus.SUCCEEDED: 0,
            JobStatus.FAILED: 0,
            JobStatus.TIMED_OUT: 0,
        }
        self.results_spilled = 0
        self._in_flight: Dict[Tuple, Event] = {}
        self._completed: Dict[Tuple, Tuple[TaskResult, float]] = {}
        self.reuse_hits_running = 0
        self.reuse_hits_completed = 0

    def register(self, job: Job) -> None:
        self.jobs[job.job_id] = job
        self.jobs_total += 1

    def retire(self, job: Job) -> None:
        """``job`` reached its terminal status: count it, and let the
        oldest finished job beyond the retained window leave the registry."""
        self.finished_by_status[job.status] += 1
        self._finished_ids.append(job.job_id)
        if len(self._finished_ids) > FINISHED_JOBS_RETAINED:
            self.jobs.pop(self._finished_ids.popleft(), None)

    # -- task reuse ------------------------------------------------------

    def lookup_task(self, sig: Tuple) -> Optional[Event]:
        """An event resolving to a TaskResult for an identical task, if
        one is running or recently finished."""
        ev = self._in_flight.get(sig)
        if ev is not None and not (ev.triggered and not ev.ok):
            self.reuse_hits_running += 1
            return ev
        hit = self._completed.get(sig)
        if hit is not None:
            result, at = hit
            if self.sim.now - at <= self.reuse_completed_window_s:
                self.reuse_hits_completed += 1
                done = self.sim.event(name="task-reuse")
                done.succeed(result)
                return done
            del self._completed[sig]
        return None

    def track_task(self, sig: Tuple, done: Event) -> None:
        """Publish an in-flight task for other jobs to piggyback on; its
        owner calls :meth:`settle_task` from its callback on ``done``."""
        self._in_flight[sig] = done

    def settle_task(self, sig: Tuple, done: Event) -> None:
        """``done`` resolved: withdraw the task from the in-flight table
        and, with a reuse window, remember its result — for the window,
        not for good: results that have outlived it leave here."""
        if self._in_flight.get(sig) is done:
            del self._in_flight[sig]
        window = self.reuse_completed_window_s
        if window <= 0:
            return
        completed = self._completed
        now = self.sim.now
        # Oldest first: a re-settled signature moves to the end below, so
        # insertion order is completion order.
        while completed:
            oldest = next(iter(completed))
            if now - completed[oldest][1] <= window:
                break
            del completed[oldest]
        if done.ok:
            completed.pop(sig, None)
            completed[sig] = (done.value, now)
