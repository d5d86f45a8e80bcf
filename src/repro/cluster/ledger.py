"""Replicated job ledger: master state that survives failover (§III-C).

"The backup components get checkpoint and operations log from the
primary in realtime, so that they will reach the same running state as
the primary."  The ledger records every job's lifecycle through a
:class:`~repro.cluster.failover.PrimaryBackup` state machine; when the
master fails over, the promoted shadow already holds the full history,
and the replacement master resumes from it.  In-flight jobs at the
moment of failure are *not* transparently resumed — exactly like the
production system, the client sees an error and resubmits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.failover import PrimaryBackup
from repro.sim.events import Simulator


@dataclass(frozen=True)
class LedgerEntry:
    """One job's durable summary."""

    job_id: str
    user: str
    sql: str
    status: str
    submitted_at: float
    finished_at: Optional[float] = None


def _record_submit(state: Dict, entry_fields: tuple) -> None:
    job_id, user, sql, submitted_at = entry_fields
    state[job_id] = LedgerEntry(job_id, user, sql, "running", submitted_at)


def _record_finish(state: Dict, entry_fields: tuple) -> None:
    job_id, status, finished_at = entry_fields
    old = state.get(job_id)
    if old is None:  # finish for a job the replica never saw submitted
        state[job_id] = LedgerEntry(job_id, "?", "?", status, 0.0, finished_at)
        return
    state[job_id] = LedgerEntry(
        old.job_id, old.user, old.sql, status, old.submitted_at, finished_at
    )


class JobLedger:
    """Durable job history behind a primary/backup pair."""

    def __init__(self, sim: Simulator, checkpoint_interval_ops: int = 256):
        self.sim = sim
        # The checkpoint interval bounds the op log: every N ops the
        # shadow is drained and the log truncated to its tail.  Entries
        # are frozen, so a new shadow needs only a shallow copy of the
        # primary's dict.
        self._pb: PrimaryBackup[Dict] = PrimaryBackup(
            sim,
            dict,
            name="job-ledger",
            checkpoint_interval_ops=checkpoint_interval_ops,
            copy_state=dict.copy,
        )

    # -- writes (called by the master) --------------------------------------

    def record_submitted(self, job_id: str, user: str, sql: str, at: float) -> None:
        self._pb.apply(_record_submit, (job_id, user, sql, at))

    def record_finished(self, job_id: str, status: str, at: float) -> None:
        self._pb.apply(_record_finish, (job_id, status, at))

    # -- reads ----------------------------------------------------------------

    def entries(self) -> List[LedgerEntry]:
        """Authoritative history (primary replica)."""
        return sorted(self._pb.state.values(), key=lambda e: e.submitted_at)

    def monitoring_entries(self) -> List[LedgerEntry]:
        """Possibly slightly stale history served by the shadow."""
        return sorted(self._pb.monitoring_state().values(), key=lambda e: e.submitted_at)

    def get(self, job_id: str) -> Optional[LedgerEntry]:
        return self._pb.state.get(job_id)

    # -- failover ----------------------------------------------------------------

    def fail_primary(self) -> None:
        """Primary dies; the shadow replays the log and takes over."""
        self._pb.fail_primary()
        self._pb.start_new_shadow()

    @property
    def failovers(self) -> int:
        return self._pb.failovers

    @property
    def log_length(self) -> int:
        """Retained op-log tail length (bounded by the checkpoint interval)."""
        return self._pb.log_length
