"""Cluster message sizes and the rule for what a hop costs (§V-C).

Every control-plane and data-plane exchange in the simulated cluster is
one :meth:`~repro.sim.netmodel.NetworkTopology.transfer` on the right
traffic class — control/state flow first, write data flow second, read
data flow last — with a size of at least one byte.  Where the two ends
share a node, the sender decides whether the hop is a message:

* what happens at the instant a job is emitted — task dispatch, the
  broadcast ship — always transfers, a zero-delay event when node-local.
  The number of events a task spends before it reaches its leaf is what
  orders it against everything else that instant causes: its sibling
  tasks in the leaf's slot and disk queues (only a leaf's first task
  ships), and the placements of other jobs emitted at the same instant,
  which read the leaf's load;
* the way back up the tree — results, status updates, spills,
  heartbeats — transfers only ``if src != dst``.  Master, a rack stem and
  a leaf may share one node, and what passes between them crosses no
  link, takes no simulated time and loads nothing, so it costs no event
  either.  The rule does not depend on a fault injector being installed:
  ``FaultInjector.intercept_transfer`` exempts node-local transfers and
  draws no randomness for them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Size of a heartbeat message: worker id, load stats, slot counts.
HEARTBEAT_BYTES = 256
#: Base size of a task-dispatch message (plan fragment, predicate CNF).
DISPATCH_BASE_BYTES = 2048
#: Size of a task status update.
STATUS_BYTES = 128


@dataclass
class WorkerLoad:
    """Load snapshot a worker reports in its heartbeat."""

    running_tasks: int = 0
    queued_tasks: int = 0
    disk_queue_s: float = 0.0
    cpu_queue_s: float = 0.0

    @property
    def pressure(self) -> float:
        """Scalar the scheduler compares across candidate workers."""
        return (
            self.running_tasks
            + self.queued_tasks
            + 2.0 * self.disk_queue_s
            + 2.0 * self.cpu_queue_s
        )
