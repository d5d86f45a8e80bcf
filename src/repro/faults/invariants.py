"""Always-on cluster invariant monitor for chaos runs.

While a fault plan is tearing the cluster apart, these properties must
still hold — each one is a paper-level guarantee the recovery machinery
(§III-C heartbeat sweeps, backup tasks, re-admission, failover) exists
to preserve:

1. **Bounded liveness** — every admitted job reaches a terminal state
   within a horizon; the event loop never deadlocks waiting on it.
2. **Safety** — a *successful, complete* answer is never wrong
   (differential check against a single-node oracle; the test suite's
   is stdlib sqlite3 over the same tables, ``tests/_oracle.py``, whose
   ``DIVERGENCES`` name where the engine answers differently on purpose).
3. **Replication floor** — storage systems never silently drop below
   their replica target.
4. **At-most-once accounting** — backup/retry races never count one
   task's result twice.
5. **No corpse resurrection** — a worker whose process is dead is never
   re-admitted to the schedulable set by a stale heartbeat.
6. **No departed-node placement** (S55) — after a decommission completes,
   no block placement still references the departed node.

The monitor accumulates violations instead of raising immediately so a
scenario's report shows *everything* that went wrong; :meth:`assert_ok`
raises one :class:`~repro.errors.InvariantViolation` carrying the seed
and a replay command.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.jobs import Job, JobStatus
from repro.errors import InvariantViolation
from repro.sim.events import SimulationError

#: Job states the liveness invariant accepts as terminal.
TERMINAL_STATES = (JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.TIMED_OUT)

#: ``oracle(sql, result)`` returns a violation message or None.
Oracle = Callable[[str, object], Optional[str]]


class InvariantMonitor:
    """Watches one cluster through a chaos scenario."""

    def __init__(self, cluster, horizon_s: float = 600.0, oracle: Optional[Oracle] = None):
        self.cluster = cluster
        self.horizon_s = horizon_s
        self.oracle = oracle
        self.violations: List[str] = []
        self.jobs_checked = 0
        self._floors: Dict[str, Tuple[object, int]] = {}
        self._departed: Dict[str, Tuple[object, Callable[[], List[object]]]] = {}
        cluster.cluster_manager.on_readmit(self._on_readmit)

    # -- invariant 5: corpse resurrection ---------------------------------

    def _on_readmit(self, worker_id: str) -> None:
        worker = next(
            (
                w
                for w in list(self.cluster.leaves) + list(self.cluster.stems)
                if w.worker_id == worker_id
            ),
            None,
        )
        if worker is not None and not worker.alive:
            self._violate(
                f"dead worker {worker_id} re-admitted by a stale heartbeat "
                "(corpse resurrection)"
            )

    # -- invariant 3: replication floor -----------------------------------

    def expect_replication(self, system, floor: Optional[int] = None) -> None:
        """Register a storage system whose live replica count per path
        must never fall below ``floor`` (default: its configured target)."""
        if floor is None:
            floor = getattr(system, "replication", 1)
        self._floors[system.name] = (system, floor)

    def expect_no_departed(self, system, departed: Callable[[], List[object]]) -> None:
        """Register a system whose placements must never reference a
        departed node (S55 decommission): ``departed`` is a live callable
        — e.g. ``lambda: elastic.departed`` — evaluated at check time, so
        nodes that leave *after* registration are still covered."""
        self._departed[system.name] = (system, departed)

    def check_replication(self) -> None:
        for name, (system, departed) in self._departed.items():
            gone = set(departed())
            if not gone:
                continue
            for path in system.list_paths():
                stranded = [n for n in system.locations(path) if n in gone]
                if stranded:
                    self._violate(
                        f"departed-node placement for {name}:{path}: replicas "
                        f"still listed on decommissioned node(s) {stranded}"
                    )
        for name, (system, floor) in self._floors.items():
            for path in system.list_paths():
                locs = system.locations(path)
                live = len(locs)
                if live < floor:
                    self._violate(
                        f"replication of {name}:{path} silently dropped to "
                        f"{live} < floor {floor}"
                    )
                if len(set(locs)) < live:
                    # A retried migration/repair that re-appends the same
                    # holder inflates the count without adding durability.
                    self._violate(
                        f"double-counted replica for {name}:{path}: "
                        f"placement {locs} lists a node twice"
                    )

    # -- invariants 1, 2, 4: per-job checks -------------------------------

    def run_job(self, sql: str, options=None, user: Optional[str] = None) -> Job:
        """Submit ``sql`` and drive the simulation to the job's terminal
        state, recording liveness/safety violations along the way."""
        sim = self.cluster.sim
        job, done = self.cluster.submit(sql, user=user, options=options)
        try:
            sim.run_until_complete(done, limit=sim.now + self.horizon_s)
        except SimulationError as exc:
            kind = "event-loop deadlock" if "deadlock" in str(exc) else "horizon exceeded"
            self._violate(
                f"liveness: job {job.job_id} not terminal within {self.horizon_s:g}s "
                f"({kind}: {exc})"
            )
            return job
        self.check_job(job, sql=sql)
        return job

    def check_job(self, job: Job, sql: Optional[str] = None) -> None:
        self.jobs_checked += 1
        if job.status not in TERMINAL_STATES:
            self._violate(
                f"liveness: job {job.job_id} resolved in non-terminal state "
                f"{job.status.value}"
            )
            return
        stats = job.stats
        if stats.tasks_completed > stats.tasks_total:
            self._violate(
                f"accounting: job {job.job_id} counted {stats.tasks_completed} "
                f"completed tasks out of {stats.tasks_total} planned "
                "(a backup/retry race was double-counted)"
            )
        if (
            job.status is JobStatus.SUCCEEDED
            and job.result is not None
            and job.result.processed_ratio >= 1.0
            and self.oracle is not None
        ):
            problem = self.oracle(sql if sql is not None else job.sql, job.result)
            if problem is not None:
                self._violate(f"safety: job {job.job_id} answered wrong — {problem}")

    # -- reporting --------------------------------------------------------

    def _violate(self, message: str) -> None:
        self.violations.append(f"t={self.cluster.sim.now:.4f}: {message}")

    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_ok(self, seed: Optional[int] = None, scenario: Optional[str] = None) -> None:
        """Run the end-of-scenario checks and raise on any violation.

        The raised report names the scenario, prints the seed, and gives
        the exact command that replays the identical event sequence.
        """
        self.check_replication()
        if not self.violations:
            return
        lines = [
            f"{len(self.violations)} invariant violation(s)"
            + (f" in scenario {scenario!r}" if scenario else "")
            + (f" [seed={seed}]" if seed is not None else "")
        ]
        lines.extend(f"  - {v}" for v in self.violations)
        injector = getattr(self.cluster, "fault_injector", None)
        if injector is not None:
            lines.append(injector.describe())
        if seed is not None:
            selector = f" -k {scenario}" if scenario else ""
            lines.append(
                f"replay: CHAOS_SEED={seed} PYTHONPATH=src "
                f"python -m pytest -m chaos tests/chaos{selector}"
            )
        raise InvariantViolation("\n".join(lines))
