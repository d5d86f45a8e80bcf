"""Cluster manager: worker registry, heartbeats, liveness (§III-C).

The paper's cluster manager "manages runtime information of workers" and
"communicates with the job manager using periodic RPC"; Feisu avoids
ZooKeeper because of worker count and geographic spread.  Here workers
push heartbeats over the control traffic class; a worker missing
``MISSED_LIMIT`` consecutive heartbeats is marked dead, and the scheduler
stops placing work on it.  The component is deliberately standalone so it
can be "horizontally scaled" away from the master, as §VII recounts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cluster.messages import WorkerLoad
from repro.errors import ClusterStateError
from repro.sim.events import Simulator
from repro.sim.netmodel import NodeAddress

#: Heartbeat period in simulated seconds.
HEARTBEAT_PERIOD_S = 5.0
#: Heartbeats missed before a worker is declared dead.
MISSED_LIMIT = 3


@dataclass
class WorkerRecord:
    """What the cluster manager knows about one worker."""

    worker_id: str
    address: NodeAddress
    is_stem: bool
    last_heartbeat: float = 0.0
    load: WorkerLoad = field(default_factory=WorkerLoad)
    alive: bool = True
    #: Times this worker came back after being declared dead.
    readmitted: int = 0
    #: Graceful decommission in progress (S55): the worker keeps
    #: heartbeating and finishes running tasks, but the scheduler stops
    #: placing new work on it while its replicas are evacuated.
    draining: bool = False


class ClusterManager:
    """Liveness + load registry for every stem and leaf server."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._workers: Dict[str, WorkerRecord] = {}
        self.heartbeats_received = 0
        self.readmissions = 0
        self._readmit_listeners: List[Callable[[str], None]] = []

    def register(self, worker_id: str, address: NodeAddress, is_stem: bool = False) -> None:
        if worker_id in self._workers:
            raise ClusterStateError(f"worker {worker_id!r} already registered")
        self._workers[worker_id] = WorkerRecord(
            worker_id, address, is_stem, last_heartbeat=self.sim.now
        )

    def unregister(self, worker_id: str) -> None:
        """Remove a worker from the registry entirely (S55 decommission).

        Distinct from death: a dead worker stays in the table so a late
        heartbeat triggers explicit re-admission, while an unregistered
        worker is *gone* — any later heartbeat or lookup raises, and the
        same id may re-register from scratch (a rejoin)."""
        if worker_id not in self._workers:
            raise ClusterStateError(f"unknown worker {worker_id!r}")
        del self._workers[worker_id]

    # -- drain lifecycle (S55) ---------------------------------------------

    def start_drain(self, worker_id: str) -> None:
        """Mark a worker draining: alive, heartbeating, but no longer a
        placement target while its replicas are evacuated."""
        self._record(worker_id).draining = True

    def cancel_drain(self, worker_id: str) -> None:
        self._record(worker_id).draining = False

    def is_draining(self, worker_id: str) -> bool:
        try:  # the table itself, not ``_record``: asked per placement candidate
            return self._workers[worker_id].draining
        except KeyError:
            return self._record(worker_id).draining  # raises ClusterStateError

    def draining_workers(self) -> List[str]:
        return [r.worker_id for r in self._workers.values() if r.draining]

    def on_readmit(self, listener: Callable[[str], None]) -> None:
        """Subscribe to explicit re-admissions (scheduler notification)."""
        self._readmit_listeners.append(listener)

    def heartbeat(self, worker_id: str, load: WorkerLoad) -> None:
        record = self._record(worker_id)
        was_dead = not record.alive
        record.last_heartbeat = self.sim.now
        record.load = load
        record.alive = True
        self.heartbeats_received += 1
        if was_dead:
            # A late heartbeat from a worker sweep() already declared
            # dead used to silently resurrect it — the scheduler had
            # rescheduled its tasks and never learned it was back.
            # Re-admission is now an explicit, observable event.
            record.readmitted += 1
            self.readmissions += 1
            for listener in self._readmit_listeners:
                listener(worker_id)

    def sweep(self) -> List[str]:
        """Mark overdue workers dead; returns newly dead worker ids."""
        deadline = self.sim.now - HEARTBEAT_PERIOD_S * MISSED_LIMIT
        newly_dead = []
        for record in self._workers.values():
            if record.alive and record.last_heartbeat < deadline:
                record.alive = False
                newly_dead.append(record.worker_id)
        return newly_dead

    def _record(self, worker_id: str) -> WorkerRecord:
        try:
            return self._workers[worker_id]
        except KeyError:
            raise ClusterStateError(f"unknown worker {worker_id!r}") from None

    def is_alive(self, worker_id: str) -> bool:
        try:  # as in ``is_draining``
            return self._workers[worker_id].alive
        except KeyError:
            return self._record(worker_id).alive  # raises ClusterStateError

    def load_of(self, worker_id: str) -> WorkerLoad:
        return self._record(worker_id).load

    def address_of(self, worker_id: str) -> NodeAddress:
        return self._record(worker_id).address

    def live_workers(self, stems: Optional[bool] = None) -> List[WorkerRecord]:
        out = []
        for record in self._workers.values():
            if not record.alive:
                continue
            if stems is not None and record.is_stem != stems:
                continue
            out.append(record)
        return out

    def worker_count(self) -> int:
        return len(self._workers)
