"""The Feisu master: entry guard, job manager, scheduler, finalization.

Mirrors §III-C's component split: the :class:`EntryGuard` admits traffic
(identity, rights, quota), the job manager analyzes semantics and reuses
identical tasks, the job scheduler creates the scheduling plan, and task
results are summarized bottom-up (leaf → stem → master) before the
client sees them.  Oversized results take the §V-C write flow: dumped to
global storage with only the location passed upstream.  Primary/backup
replication of master-component state is provided by
:class:`repro.cluster.failover.PrimaryBackup`.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, Generator, List, Optional, Sequence, Set, Tuple

from repro.cluster.jobs import (
    Job,
    TaskTiming,
    JobManager,
    JobOptions,
    JobStatus,
    new_job,
    task_signature,
)
from repro.cluster.membership import ClusterManager
from repro.cluster.messages import DISPATCH_BASE_BYTES, STATUS_BYTES
from repro.cluster.node import LeafServer, StemServer
from repro.cluster.scheduler import JobScheduler, Placement
from repro.columnar.table import Catalog
from repro.storage.loader import read_table_frame
from repro.engine.executor import TaskResult, finalize
from repro.errors import (
    AccessDeniedError,
    ClusterStateError,
    FeisuError,
    IntegerOverflowError,
    QueryTimeout,
    SchedulingError,
)
from repro.planner.expressions import Frame
from repro.planner.physical import PhysicalPlan, ScanTask, build_plan
from repro.security.acl import AccessControl, QuotaPolicy, RateLimiter
from repro.security.auth import Credential, SSOAuthority
from repro.sim.events import Event, Process, Simulator
from repro.sim.netmodel import NetworkTopology, NodeAddress, TrafficClass
from repro.sql.analyzer import analyze_sql

#: How many distinct leaves one task may be attempted on before failing.
MAX_TASK_ATTEMPTS = 4

#: Cap on concurrently running jobs (§III-C candidate queue); admitted
#: jobs beyond it wait in the candidate queue.
MAX_CONCURRENT_JOBS = 64


class CandidateQueue:
    """The master's admitted-but-not-yet-emitted job queue (§III-C),
    strict FIFO like the paper's candidate queue."""

    def __init__(self) -> None:
        self._queue: Deque[Tuple[Job, Event]] = deque()

    def push(self, job: Job, done: Event) -> None:
        self._queue.append((job, done))

    def pop_next(self) -> Optional[Tuple[Job, Event]]:
        """The next job to emit, or None when empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def remove(self, job_id: str) -> Optional[Tuple[Job, Event]]:
        """Withdraw a queued job (cancellation) without emitting it."""
        for i, (job, done) in enumerate(self._queue):
            if job.job_id == job_id:
                del self._queue[i]
                return job, done
        return None

    def drain(self) -> List[Tuple[Job, Event]]:
        """Empty the queue, returning what was waiting (master failover)."""
        waiting = list(self._queue)
        self._queue.clear()
        return waiting

    def jobs(self) -> List[Tuple[Job, Event]]:
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)


# Per-task and per-wave state lives in the two small objects below, not in
# closures over the supervising generator's frame.  Closures that call each
# other (a retry relaunching, a fallback re-registering itself) reach each
# other through their cells, and such a cycle keeps every attempt, result
# and frame of a task alive until the cyclic collector runs.  Here the only
# references into the state come from live frames and pending events, so it
# dies by reference count once the task or wave resolves.


class _Wave:
    """What the task callbacks of one :meth:`Master._run_wave` share.

    Each task callback is a ``partial`` of one of its bound methods; the
    wave refers to no callback, so it and its ``arrived`` results are
    freed once the last of its tasks has reported.
    """

    __slots__ = (
        "master", "job", "total", "broadcasts", "sent_broadcast_to", "arrived",
        "early_ratio", "failed", "error", "reused", "gate", "unplaced", "placements",
    )

    def __init__(
        self,
        master: "Master",
        job: Job,
        total: int,
        broadcasts: Dict[str, Frame],
        early_ratio: Optional[float],
    ):
        self.master = master
        self.job = job
        self.total = total
        self.broadcasts = broadcasts
        self.sent_broadcast_to: Set[str] = set()
        self.arrived: Dict[str, TaskResult] = {}
        self.early_ratio = early_ratio
        self.failed = 0
        #: The first terminal failure of one of its tasks.
        self.error: Optional[BaseException] = None
        self.reused: Set[str] = set()
        self.gate = master.sim.event(name=f"{job.job_id}.wave")
        self.unplaced: List[ScanTask] = []  # its own tasks, until placed
        self.placements: Optional[List[Optional[Placement]]] = None

    def launch(self, task: ScanTask, sig: Tuple, in_wave: bool = False) -> None:
        """Start ``task``'s own supervisor (placed by the wave when
        ``in_wave``), published for identical-task reuse under ``sig``.
        One callback on its completion settles the job manager's
        in-flight entry and then the task's place in this wave."""
        master = self.master
        done = Event(master.sim, "task.done")
        master.job_manager.track_task(sig, done)
        state = _TaskAttempts(
            master, self.job, task, self.broadcasts, self.sent_broadcast_to, done
        )
        if in_wave:
            state.wave = self
            state.wave_index = len(self.unplaced)
            self.unplaced.append(task)
        Process(master.sim, master._task_supervisor(state), task.task_id)  # noqa: SLF001
        done.add_callback(partial(self._settle_own, sig, task))

    def _settle_own(self, sig: Optional[Tuple], task: ScanTask, ev: Event) -> None:
        """The task's place in this wave, once ``ev`` (its own supervisor's
        ``done``, published under ``sig``, or with ``sig`` None a reused
        task's) has resolved."""
        if sig is not None:
            self.master.job_manager.settle_task(sig, ev)
        gate = self.gate
        if gate.triggered:
            return
        job = self.job
        if ev._exc is None:  # noqa: SLF001 - a callback's event has fired
            result = ev._value  # noqa: SLF001
            self.arrived[task.task_id] = result
            job.stats.absorb(result)
            if task.task_id in self.reused:
                job.stats.tasks_reused += 1
        else:
            self.failed += 1
            job.stats.tasks_failed += 1
            if self.error is None:
                self.error = ev._exc  # noqa: SLF001
        completed = len(self.arrived)
        if completed + self.failed == self.total or (
            self.early_ratio is not None and completed / self.total >= self.early_ratio
        ):
            gate.succeed()

    def settle(self, task: ScanTask, ev: Event) -> None:
        """A reused task's result, as :meth:`_settle_own` takes it; but when
        the shared task failed, the task falls back to its own supervisor
        once."""
        if ev._exc is not None and not self.gate.triggered:  # noqa: SLF001
            # The shared task exhausted *another job's* attempt budget;
            # inheriting that failure with zero attempts of our own turned
            # one job's bad luck into every piggybacker's.
            self.reused.discard(task.task_id)
            self.launch(task, task_signature(self.job.plan, task))
            return
        self._settle_own(None, task, ev)


class _TaskAttempts:
    """One task's attempts, as :meth:`Master._task_supervisor` launches them.

    The attempts reach this object through the bound :meth:`report`, and
    it reaches them through ``attempts``: a loop only while an attempt is
    still running, gone once the last one has returned.
    """

    __slots__ = (
        "master", "job", "task", "broadcasts", "sent_broadcast_to", "done",
        "attempts", "failures", "armed", "wave", "wave_index",
    )

    def __init__(
        self,
        master: "Master",
        job: Job,
        task: ScanTask,
        broadcasts: Dict[str, Frame],
        sent_broadcast_to: Set[str],
        done: Event,
    ):
        self.master = master
        self.job = job
        self.task = task
        self.broadcasts = broadcasts
        self.sent_broadcast_to = sent_broadcast_to
        self.done = done
        #: One ``(process, placement, launched_at)`` record per attempt.
        self.attempts: List[Tuple[Process, Placement, float]] = []
        self.failures = 0
        #: The supervisor's pending backup deadline timer, if it sleeps on one.
        self.armed: List[Event] = []
        #: The wave that places the first attempt, and the task's index in
        #: it; None once used, or for a task placed by ``place``.
        self.wave: Optional[_Wave] = None
        self.wave_index = 0

    def report(self, value: Optional[TaskResult], exc: Optional[Exception]) -> None:
        # Called by the attempt itself as its last step (not as a
        # callback on its process, which would cost every task one
        # more zero-delay event to learn what the attempt knows).
        done = self.done
        if done.triggered:
            return
        if exc is None:
            done.succeed(value)
        else:
            self.failures += 1
            # An overflow is the data's answer on every leaf: not retried,
            # and the task fails without waiting for its other attempts.
            if self.failures < MAX_TASK_ATTEMPTS and not isinstance(exc, IntegerOverflowError):
                if self.launch() or self.failures < len(self.attempts):
                    return
            done.fail(exc)
        # The task is resolved: the backup deadline timer dies with it.  Its
        # slot keeps its time on the queue but no longer wakes (or keeps
        # alive) this supervisor, its attempts and the job behind them.
        for timer in self.armed:
            timer.abandon()

    def launch(self) -> bool:
        """Start one more attempt.  A wave's task is first placed by its
        wave: the first supervisor to launch places the whole wave, since
        the first steps of its supervisors are consecutive pops, so one
        ``place_wave`` decides what their ``place`` calls would have (in
        ``_run_wave`` it would not: lower-seq entries of the instant run
        between and move load)."""
        master, job, task, attempts = self.master, self.job, self.task, self.attempts
        wave = self.wave
        try:
            if wave is None:
                placement = master.scheduler.place(
                    task, job.plan.scan_cnf,
                    exclude=[a[1].leaf.worker_id for a in attempts] if attempts else (),
                )
            else:
                self.wave = None
                placements = wave.placements
                if placements is None:
                    placements = wave.placements = master.scheduler.place_wave(
                        wave.unplaced, job.plan.scan_cnf
                    )
                placement = placements[self.wave_index]
        except SchedulingError:
            placement = None
        if placement is None:
            return False
        index = len(attempts)
        proc = Process(
            master.sim,
            master._task_flow(  # noqa: SLF001
                job, task, placement, self.broadcasts, self.sent_broadcast_to, self.report,
                is_backup=index > 0,
                attempt_index=index,
            ),
            "task.attempt",
        )
        attempts.append((proc, placement, master.sim.now))
        if index:
            job.stats.backups_launched += 1
        return True


class EntryGuard:
    """The system's entry point: authentication, authorization, quota."""

    def __init__(
        self,
        authority: SSOAuthority,
        acl: AccessControl,
        quota: QuotaPolicy,
        rate_limiter: Optional["RateLimiter"] = None,
    ):
        self.authority = authority
        self.acl = acl
        self.quota = quota
        #: Capability protection against malicious/runaway clients.
        self.rate_limiter = rate_limiter
        self.admitted = 0
        self.rejected = 0

    def admit(
        self, user: str, cred: Optional[Credential], tables: Sequence[str], now: float
    ) -> None:
        try:
            if cred is None:
                raise AccessDeniedError(f"user {user!r} presented no credential")
            self.authority.validate(cred, now=now)
            if cred.user != user:
                raise AccessDeniedError(
                    f"credential belongs to {cred.user!r}, not {user!r}"
                )
            if self.rate_limiter is not None:
                self.rate_limiter.check(user, now)
            self.acl.check_read(user, tables)
            self.quota.admit_query(user, now)
        except AccessDeniedError:
            self.rejected += 1
            raise
        self.admitted += 1


class Master:
    """Root of the server tree."""

    def __init__(
        self,
        sim: Simulator,
        net: NetworkTopology,
        router,
        catalog: Catalog,
        cluster_manager: ClusterManager,
        scheduler: JobScheduler,
        entry_guard: EntryGuard,
        address: NodeAddress = NodeAddress(0, 0, 0),
        reuse_completed_window_s: float = 0.0,
        service_credential: Optional[Credential] = None,
        ledger=None,
    ):
        #: Cross-domain credential the master uses for internal data
        #: movement (broadcast-table reads); mirrors SSO's "mapping their
        #: authentication information to running job credential" (§III-C).
        self.service_credential = service_credential
        self.sim = sim
        self.net = net
        self.router = router
        self.catalog = catalog
        self.cluster_manager = cluster_manager
        self.scheduler = scheduler
        self.entry_guard = entry_guard
        self.address = address
        self.job_manager = JobManager(sim, reuse_completed_window_s)
        self._stems: Dict[Tuple[int, int], StemServer] = {}
        self._dc_stems: Dict[int, StemServer] = {}
        #: §III-C: admitted jobs wait in a candidate queue until the
        #: scheduler emits them; this caps concurrently running jobs.
        self.max_concurrent_jobs = MAX_CONCURRENT_JOBS
        self._running_jobs = 0
        self._candidate_queue = CandidateQueue()
        #: Durable job history replicated to the backup master (§III-C).
        self.ledger = ledger
        self._active: Dict[str, Tuple[Job, Event]] = {}
        self._shut_down = False
        sim.process(self._sweep_loop(), name="master.sweep")

    def register_stem(self, stem: StemServer) -> None:
        """Register a rack-level stem (the tree's lowest internal layer)."""
        key = (stem.address.datacenter, stem.address.rack)
        self._stems[key] = stem

    def register_dc_stem(self, stem: StemServer) -> None:
        """Register a datacenter-level stem above the rack stems.

        The server tree then has three internal hops — leaf → rack stem →
        dc stem → master — matching the paper's arbitrary-depth tree for
        geo-distributed deployments.
        """
        self._dc_stems[stem.address.datacenter] = stem

    def _aggregation_path(self, leaf_address: NodeAddress) -> Tuple[StemServer, ...]:
        """The live internal nodes a result crosses, bottom-up: the leaf's
        rack stem (any live one while it is down), then its datacenter's
        stem if that is live and another server."""
        rack_stem = self._stems.get((leaf_address.datacenter, leaf_address.rack))
        if rack_stem is None or not rack_stem.alive:
            rack_stem = next((s for s in self._stems.values() if s.alive), None)
        dc_stem = self._dc_stems.get(leaf_address.datacenter)
        if dc_stem is None or not dc_stem.alive or dc_stem is rack_stem:
            return () if rack_stem is None else (rack_stem,)
        return (dc_stem,) if rack_stem is None else (rack_stem, dc_stem)

    def _sweep_loop(self) -> Generator[Event, None, None]:
        while True:
            yield self.sim.timeout(5.0)
            self.cluster_manager.sweep()

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        sql: str,
        user: str,
        cred: Optional[Credential],
        options: Optional[JobOptions] = None,
    ) -> Tuple[Job, Event]:
        """Admit, plan and launch a query; returns (job, completion event).

        The completion event's value is the job (inspect ``job.result``);
        admission failures raise synchronously, exactly like the paper's
        client-side verification.
        """
        job = self.admit(sql, user, cred, options)
        return self.launch(job)

    def admit(
        self,
        sql: str,
        user: str,
        cred: Optional[Credential],
        options: Optional[JobOptions] = None,
    ) -> Job:
        """The admission half of :meth:`submit`: the statement (parsed and
        analyzed once per text, :func:`~repro.sql.analyzer.analyze_sql`),
        entry guard, plan, register.  Raises synchronously on any
        rejection; the returned job has not yet entered the candidate
        queue.  The entry guard runs on every admission, on the tables of
        the statement about to be planned."""
        if self._shut_down:
            raise ClusterStateError("this master has shut down; resubmit to its successor")
        options = options or JobOptions()
        if options.sample_block_ratio is not None or options.max_time_s is not None:
            options.validate()  # only where set: the default path costs no call
        analyzed = analyze_sql(sql, self.catalog)
        self.entry_guard.admit(user, cred, analyzed.table_names, self.sim.now)
        plan = build_plan(analyzed)
        job = new_job(user, sql, plan, options, self.sim.now)
        self.job_manager.register(job)
        return job

    def launch(self, job: Job) -> Tuple[Job, Event]:
        """The emission half of :meth:`submit`: run now if a slot is
        free, otherwise wait in the candidate queue.  Reentrant — any
        number of launched jobs interleave on the event loop."""
        done = self.sim.event(name=f"{job.job_id}.done")
        if self._running_jobs < self.max_concurrent_jobs:
            self._emit(job, done)
        else:
            self._candidate_queue.push(job, done)
        return job, done

    def _emit(self, job: Job, done: Event) -> None:
        """Move a job from the candidate queue into execution."""
        self._running_jobs += 1
        job.started_at = self.sim.now
        if job.trace is not None and job.trace.root is not None:
            job.trace.root.tag(queued_s=job.started_at - job.submitted_at)
        self._active[job.job_id] = (job, done)
        if self.ledger is not None:
            self.ledger.record_submitted(job.job_id, job.user, job.sql, job.submitted_at)
        proc = self.sim.process(self._job_process(job, done), name=job.job_id)

        def on_proc_outcome(ev) -> None:
            # Safety net: an uncaught orchestration failure must resolve
            # the client's wait with the error, never strand it.
            if not ev.ok and not done.triggered:
                self._finish_failed(job, done, ev._exc)  # noqa: SLF001

        proc.add_callback(on_proc_outcome)

    def _record_terminal(self, job: Job) -> None:
        self._active.pop(job.job_id, None)
        self.job_manager.retire(job)
        if job.trace is not None and job.trace.root is not None:
            # Close the root and clamp any attempt spans a timeout or
            # cancel left open; root duration == job.response_time_s.
            end = job.finished_at if job.finished_at is not None else self.sim.now
            job.trace.root.tag(status=job.status.value)
            job.trace.root.finish_tree(end)
        if self.ledger is not None:
            if job.started_at is None:
                # A job aborted straight from the candidate queue was
                # never emitted; give the ledger its submission first so
                # history carries the user/sql context.
                self.ledger.record_submitted(
                    job.job_id, job.user, job.sql, job.submitted_at
                )
            self.ledger.record_finished(job.job_id, job.status.value, self.sim.now)

    def shutdown(self) -> int:
        """Crash this master: every active job fails over to the client.

        Returns how many in-flight/queued jobs were aborted.  Mirrors the
        production failover contract — the backup takes over the durable
        state (the ledger), clients resubmit interrupted queries.
        """
        self._shut_down = True
        aborted = 0
        exc = ClusterStateError("master failed over; resubmit the query")
        for job, done in list(self._active.values()) + self._candidate_queue.jobs():
            if job.status in (JobStatus.PENDING, JobStatus.RUNNING):
                self._finish_failed(job, done, exc, holds_slot=False)
                aborted += 1
        self._candidate_queue.drain()
        self._running_jobs = 0
        return aborted

    def _job_finished(self) -> None:
        self._running_jobs -= 1
        if len(self._candidate_queue) and self._running_jobs < self.max_concurrent_jobs:
            hit = self._candidate_queue.pop_next()
            if hit is not None:
                self._emit(*hit)

    @property
    def queued_jobs(self) -> int:
        return len(self._candidate_queue)

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job.

        Queued jobs leave the candidate queue; running jobs resolve
        immediately with :class:`~repro.errors.QueryCancelled` (their
        outstanding leaf tasks finish and are discarded — the paper's
        tasks are side-effect-free reads).  Returns False for unknown or
        already-finished jobs.
        """
        from repro.errors import QueryCancelled

        queued = self._candidate_queue.remove(job_id)
        if queued is not None:
            job, done = queued
            exc = QueryCancelled(f"{job_id} cancelled while queued")
            self._finish_failed(job, done, exc, holds_slot=False)
            return True
        hit = self._active.get(job_id)
        if hit is None or hit[0].status not in (JobStatus.RUNNING, JobStatus.PENDING):
            return False
        job, done = hit
        self._finish_failed(job, done, QueryCancelled(f"{job_id} cancelled by the user"))
        return True

    @staticmethod
    def _sampled_tasks(plan: PhysicalPlan, options: JobOptions) -> List[ScanTask]:
        """Deterministic block sample (§II case 3's sampled indicators).

        Selection hashes task ids, so the same query samples the same
        blocks run-to-run — periodic indicator reports stay comparable.
        """
        ratio = options.sample_block_ratio
        if ratio is None or ratio >= 1.0 or not plan.tasks:
            return list(plan.tasks)
        if ratio <= 0.0:
            return []
        import hashlib
        import math

        keep = max(1, math.ceil(len(plan.tasks) * ratio))
        scored = sorted(
            plan.tasks,
            key=lambda t: hashlib.blake2b(
                t.block.block_id.encode(), digest_size=8
            ).digest(),
        )
        return scored[:keep]

    # -- job orchestration -------------------------------------------------------

    def _job_process(self, job: Job, done: Event) -> Generator[Event, None, None]:
        """Drive one job: fetch its broadcasts, run its tasks, resolve it.

        A job is one wave over its plan's (possibly sampled) task list,
        one task per block.
        """
        job.status = JobStatus.RUNNING
        plan = job.plan
        options = job.options
        try:
            broadcasts = yield from self._fetch_broadcasts(job)
        except FeisuError as exc:
            self._finish_failed(job, done, exc)
            return

        wave = self._sampled_tasks(plan, options)
        if not wave:  # an empty sample of a non-empty plan processed nothing
            self._finish_ok(job, done, [], 0.0 if plan.tasks else 1.0)
            return
        sampled_fraction = len(wave) / max(len(plan.tasks), 1)
        state = yield from self._run_wave(
            job, wave, broadcasts,
            early_ratio=(
                options.min_processed_ratio if options.min_processed_ratio < 1.0 else None
            ),
            time_left=options.max_time_s,
        )
        if job.status not in (JobStatus.RUNNING, JobStatus.PENDING):
            return  # cancelled or failed over while tasks were in flight

        # Completion is judged against what the job *intended* to scan
        # (the sample, if one was requested); the reported ratio is the
        # true fraction of the table's blocks that were processed.
        arrived = state.arrived
        completed_fraction = len(arrived) / len(wave)
        ratio = completed_fraction * sampled_fraction
        if completed_fraction < options.min_processed_ratio and completed_fraction < 1.0:
            if isinstance(state.error, IntegerOverflowError):
                self._finish_failed(job, done, state.error)
            else:
                self._finish_timeout(job, done, ratio)
        else:
            self._finish_ok(job, done, list(arrived.values()), ratio)

    def _run_wave(
        self,
        job: Job,
        wave: List[ScanTask],
        broadcasts: Dict[str, Frame],
        early_ratio: Optional[float] = None,
        time_left: Optional[float] = None,
    ) -> Generator[Event, None, _Wave]:
        """Launch a job's tasks, wait for them and return the wave: the
        results that arrived, by task id, in ``arrived``.

        The wait ends when every task has resolved, when ``early_ratio``
        of them have arrived, or after ``time_left`` simulated seconds.
        A task absent from the results failed terminally or was still in
        flight.
        """
        state = _Wave(self, job, len(wave), broadcasts, early_ratio)
        gate = state.gate
        for task in wave:
            sig = task_signature(job.plan, task)
            shared = self.job_manager.lookup_task(sig)
            if shared is not None:
                state.reused.add(task.task_id)
                shared.add_callback(partial(state.settle, task))
            else:
                state.launch(task, sig, in_wave=True)

        if time_left is not None:
            def expire() -> None:
                if not gate.triggered:
                    gate.succeed()

            self.sim.schedule(time_left, expire)

        yield gate
        return state

    def _finish_timeout(self, job: Job, done: Event, ratio: float) -> None:
        """Terminal path when a job lost tasks or ran out of time below
        its ``min_processed_ratio``."""
        exc = QueryTimeout(
            f"{job.job_id} processed {ratio:.0%} of data within limits",
            processed_ratio=ratio,
        )
        self._finish_failed(job, done, exc, status=JobStatus.TIMED_OUT)

    def _finish_ok(self, job: Job, done: Event, results: List[TaskResult], ratio: float) -> None:
        if job.status not in (JobStatus.RUNNING, JobStatus.PENDING):
            return  # already cancelled / failed over; don't resolve twice
        try:
            job.result = finalize(job.plan, results, processed_ratio=ratio)
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            # A finalization failure must never strand the client: the
            # job resolves with the error attached.
            self._finish_failed(job, done, exc)
            return
        job.finished_at = self.sim.now
        job.stats.response_time_s = job.response_time_s
        job.result.stats = {
            "io_bytes_modeled": job.stats.io_bytes_modeled,
            "cpu_ops_modeled": job.stats.cpu_ops_modeled,
            "index_full_covers": job.stats.index_full_covers,
            "index_clause_hits": job.stats.index_clause_hits,
            "index_clause_misses": job.stats.index_clause_misses,
            "tasks_total": job.stats.tasks_total,
            "tasks_reused": job.stats.tasks_reused,
            "backups_launched": job.stats.backups_launched,
            "response_time_s": job.stats.response_time_s,
        }
        job.status = JobStatus.SUCCEEDED
        self._record_terminal(job)
        self._job_finished()
        done.succeed(job)

    def _finish_failed(
        self,
        job: Job,
        done: Event,
        exc: BaseException,
        status: JobStatus = JobStatus.FAILED,
        holds_slot: bool = True,
    ) -> None:
        """The one way a job ends without an answer.  ``holds_slot`` is
        False for a job cancelled from the candidate queue and for every
        job of a master that shuts down: neither frees a running slot."""
        if job.status not in (JobStatus.RUNNING, JobStatus.PENDING):
            return
        job.status = status
        job.error = exc
        job.finished_at = self.sim.now
        job.stats.response_time_s = job.response_time_s
        self._record_terminal(job)
        if holds_slot:
            self._job_finished()
        if not done.triggered:
            done.succeed(job)

    # -- broadcast tables ----------------------------------------------------------

    def _fetch_broadcasts(self, job: Job) -> Generator[Event, None, Dict[str, Frame]]:
        """Read each joined dimension table once and charge its movement."""
        plan = job.plan
        fetch = None
        if job.trace is not None and plan.broadcasts:
            fetch = job.trace.root.add("fetch_broadcasts", self.sim.now)
        broadcasts: Dict[str, Frame] = {}
        moved_bytes = 0
        try:
            for bc in plan.broadcasts:
                table = self.catalog.get(bc.table_name)
                columns = read_table_frame(
                    self.router,
                    table,
                    list(bc.columns),
                    cred=self.service_credential,
                    now=self.sim.now,
                )
                if fetch is not None:
                    fetch.add(
                        f"read_table.{table.name}",
                        self.sim.now,
                        self.sim.now,
                        blocks=len(table.blocks),
                        encoded_bytes=sum(ref.bytes_for(bc.columns) for ref in table.blocks),
                    )
                frame = Frame.from_columns(columns)
                for ref in table.blocks:
                    system, inner = self.router.resolve(ref.path)
                    replicas = system.locations(inner)
                    if replicas and self.address not in replicas:
                        source = min(replicas, key=lambda r: self.net.distance(r, self.address))
                        nbytes = int(ref.bytes_for(bc.columns) * ref.scale_factor)
                        moved_bytes += nbytes
                        yield self.net.transfer(
                            source, self.address, max(1, nbytes), TrafficClass.READ
                        )
                broadcasts[bc.binding] = frame
        except FeisuError as exc:
            if fetch is not None:
                fetch.finish(self.sim.now, error=str(exc))
            raise
        if fetch is not None:
            fetch.finish(
                self.sim.now,
                tables=[bc.table_name for bc in plan.broadcasts],
                bytes=moved_bytes,
                traffic_class="read",
            )
        return broadcasts

    @staticmethod
    def _broadcast_bytes(broadcasts: Dict[str, Frame]) -> int:
        total = 0
        for frame in broadcasts.values():
            for v in frame.columns.values():
                total += v.nbytes if v.dtype != object else sum(len(str(x)) + 8 for x in v)
        return total

    # -- per-task supervision (dispatch, stem routing, backups) ---------------------

    def _task_supervisor(self, state: _TaskAttempts) -> Generator[Event, None, None]:
        """Launch ``state``'s task, then back up the *newest in-flight*
        attempt once it is overdue past its cost-model estimate (§III-C
        backup tasks), then wait for the task to resolve.

        The watch is on one attempt at a time.  When its deadline passes:

        * a newer attempt exists (a retry after a failure, launched by the
          failure's report) → rebase the deadline on it: firing on attempt
          0's clock after attempt 0 already failed would double up on a
          retry that just started;
        * the watched attempt already failed at this very instant → yield
          once at zero delay so the failure's report can launch its retry,
          then rebase (or stop if the task resolved / no retry appeared);
        * otherwise the attempt is a genuine straggler → launch one backup.

        The deadline timer being slept on is kept in ``state.armed``, so
        whoever resolves ``done`` can :meth:`~Event.abandon` it instead of
        leaving this generator suspended until a deadline nobody needs.
        """
        done = state.done
        if not state.launch():
            done.fail(SchedulingError(f"no leaf available for {state.task.task_id}"))
            return
        if state.job.options.enable_backup:
            sim, deadline_for = self.sim, self.scheduler.backup_deadline
            attempts = state.attempts
            watched = 0
            while not done.triggered:
                _, placement, launched_at = attempts[watched]
                target = launched_at + deadline_for(placement.estimate_s)
                if target > sim.now:
                    timer = Event(sim, "timeout", target - sim.now)
                    state.armed[:] = [timer]
                    yield timer
                    if done.triggered:
                        break
                newest = len(attempts) - 1
                if newest != watched:
                    watched = newest
                    continue
                if attempts[watched][0].triggered:
                    # Failed attempt; its retry (if any) is scheduled behind
                    # us in this timestamp's callback queue.  One zero-delay
                    # yield lets it appear — looping without it would spin
                    # forever.
                    yield sim.timeout(0.0)
                    if done.triggered or len(attempts) - 1 == watched:
                        break
                    watched = len(attempts) - 1
                    continue
                state.launch()
                break
        if not done.triggered:
            yield done

    def _task_flow(
        self,
        job: Job,
        task: ScanTask,
        placement: Placement,
        broadcasts: Dict[str, Frame],
        sent_broadcast_to: Set[str],
        report,
        is_backup: bool = False,
        attempt_index: int = 0,
    ) -> Generator[Event, None, TaskResult]:
        """One attempt of ``task`` on ``placement.leaf``; its outcome goes
        to the supervisor's ``report(result, exc)`` before it returns."""
        leaf = placement.leaf
        attempt_started = self.sim.now
        root = job.trace.root if job.trace is not None else None
        if root is not None and root.end_s is not None:
            root = None  # job already resolved; don't trace the straggler
        span = None
        if root is not None:
            span = root.add(
                f"task.attempt{attempt_index}",
                attempt_started,
                task_id=task.task_id,
                worker=leaf.worker_id,
                data_local=placement.data_local,
                backup=is_backup,
                estimate_s=placement.estimate_s,
            )
        try:
            # Dispatch flows down the tree — master [→ dc stem] → rack stem →
            # leaf — on the control class (§III-B: stems "further dissect the
            # plan to the leaf servers"; §V-C: task dispatch is control flow).
            # Here and for the ship below, at the instant a job is emitted,
            # every hop is an event even node-local (``repro.cluster.messages``).
            dispatch = span.add("dispatch", self.sim.now) if span is not None else None
            hops = 0
            hop_from = self.address
            for stem in reversed(self._aggregation_path(leaf.address)):
                yield self.net.transfer(
                    hop_from, stem.address, DISPATCH_BASE_BYTES, TrafficClass.CONTROL
                )
                hop_from = stem.address
                hops += 1
            yield self.net.transfer(
                hop_from, leaf.address, DISPATCH_BASE_BYTES, TrafficClass.CONTROL
            )
            hops += 1
            if dispatch is not None:
                dispatch.finish(
                    self.sim.now,
                    hops=hops,
                    bytes=DISPATCH_BASE_BYTES * hops,
                    traffic_class="control",
                )
            # First task on this leaf for a join query ships the dimensions
            # (write data flow: intermediate data, §V-C).
            if broadcasts and leaf.worker_id not in sent_broadcast_to:
                sent_broadcast_to.add(leaf.worker_id)
                ship_bytes = self._broadcast_bytes(broadcasts)
                ship = span.add("broadcast_ship", self.sim.now) if span is not None else None
                yield self.net.transfer(
                    self.address, leaf.address, max(1, ship_bytes), TrafficClass.WRITE
                )
                if ship is not None:
                    ship.finish(self.sim.now, bytes=ship_bytes, traffic_class="write")
            result = yield from leaf.run_task(task, job.plan, broadcasts, span=span)
            payload = result.payload_bytes()
            # Production-scale wire size: row frames scale with the data
            # (each materialized row models ``scale_factor`` production
            # rows); aggregate partials don't, as group cardinality is
            # scale-invariant.
            modeled = (
                payload * result.report.scale_factor
                if result.frame is not None
                else float(payload)
            )
            returned = span.add("result_return", self.sim.now) if span is not None else None
            if modeled > job.options.spill_threshold_bytes:
                # §V-C write flow: too-big results are dumped to global
                # storage and only the location information is passed.
                result = yield from self._spill_result(job, task, leaf, result, modeled)
                if returned is not None:
                    returned.tag(spilled=True, bytes=modeled, traffic_class="write")
            else:
                # Result summarized bottom-up through every live internal
                # node: leaf → rack stem [→ dc stem] → master (read flow).
                # A hop between co-located roles is no message on the way up.
                stems_crossed = 0
                hop_from = leaf.address
                # Looked up again, not remembered from dispatch: a stem that
                # died (or came back) while the leaf worked is routed around.
                for stem in self._aggregation_path(leaf.address):
                    if hop_from != stem.address:
                        yield self.net.transfer(hop_from, stem.address, payload, TrafficClass.READ)
                    result = yield stem.merge(result)
                    hop_from = stem.address
                    stems_crossed += 1
                if hop_from != self.address:
                    yield self.net.transfer(hop_from, self.address, payload, TrafficClass.READ)
                if returned is not None:
                    returned.tag(
                        spilled=False, bytes=payload, traffic_class="read", stems=stems_crossed
                    )
            if leaf.address != self.address:
                yield self.net.transfer(
                    leaf.address, self.address, STATUS_BYTES, TrafficClass.CONTROL
                )
            if returned is not None:
                returned.finish(self.sim.now)
        except BaseException as exc:
            if span is not None:
                span.tag(error=str(exc))
            if isinstance(exc, Exception):  # not a generator being closed
                report(None, exc)
            raise
        finally:
            if span is not None:
                span.finish_tree(self.sim.now)
        job.task_timeline.append(
            TaskTiming(
                task_id=task.task_id,
                worker_id=leaf.worker_id,
                started_at=attempt_started,
                finished_at=self.sim.now,
                io_bytes_modeled=result.report.modeled_io_bytes,
                cpu_ops_modeled=result.report.modeled_cpu_ops,
                index_full_cover=result.report.index_full_cover,
                backup=is_backup,
            )
        )
        report(result, None)
        return result

    def _spill_result(
        self,
        job: Job,
        task: ScanTask,
        leaf: LeafServer,
        result: TaskResult,
        modeled_bytes: float,
    ) -> Generator[Event, None, TaskResult]:
        """Dump a big result to global storage; master fetches by location."""
        from repro.engine.serialize import deserialize_result, serialize_result

        spill_system = self._spill_system()
        payload = serialize_result(result)
        inner = f"/tmp/spill/{task.task_id.replace('/', '_')}"
        # Leaf writes the intermediate data: local disk + WRITE-class
        # transfer toward the global filesystem's replica holder.
        # Hops between co-located roles are no messages (``repro.cluster.messages``).
        wire_bytes = max(1, int(modeled_bytes))
        yield leaf.disk.write(int(modeled_bytes))
        spill_system.write(inner, payload, node=leaf.address)
        replicas = spill_system.locations(inner)
        remote = next((r for r in replicas if r != leaf.address), None)
        if remote is not None:
            yield self.net.transfer(leaf.address, remote, wire_bytes, TrafficClass.WRITE)
        # Only the location travels the result path.
        if leaf.address != self.address:
            yield self.net.transfer(leaf.address, self.address, STATUS_BYTES, TrafficClass.READ)
        # Master fetches from the nearest replica on the read flow.
        source = min(replicas, key=lambda r: self.net.distance(r, self.address))
        if source != self.address:
            yield self.net.transfer(source, self.address, wire_bytes, TrafficClass.READ)
        fetched = deserialize_result(spill_system.read(inner))
        spill_system.delete(inner)
        job.stats.results_spilled += 1
        self.job_manager.results_spilled += 1
        return fetched

    def _spill_system(self):
        """The global filesystem used for intermediate dumps."""
        for system in self.router.systems():
            if system.scheme == "hdfs":
                return system
        return self.router.systems()[0]
