"""Cluster message size accounting and traffic-class routing (§V-C).

Every control-plane and data-plane exchange in the simulated cluster goes
through :func:`send` or :func:`deliver` so the network model can charge
it against the right traffic class: control/state flow first, write data
flow second, read data flow last.  The two differ only in what a hop
between co-located roles costs the *simulator*; neither gives it any
simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.sim.events import Event, Simulator
from repro.sim.netmodel import NetworkTopology, NodeAddress, TrafficClass

#: Size of a heartbeat message: worker id, load stats, slot counts.
HEARTBEAT_BYTES = 256
#: Base size of a task-dispatch message (plan fragment, predicate CNF).
DISPATCH_BASE_BYTES = 2048
#: Size of a task status update.
STATUS_BYTES = 128


def send(
    sim: Simulator,
    net: NetworkTopology,
    src: NodeAddress,
    dst: NodeAddress,
    nbytes: int,
    cls: TrafficClass,
) -> Event:
    """Transfer ``nbytes`` from ``src`` to ``dst``; completion event.

    Always an event, zero-delay when ``src == dst``.  For what happens at
    the instant a job is emitted — task dispatch, the broadcast ship —
    where the number of events a task spends before it reaches its leaf
    is what orders it against everything else that instant causes: its
    sibling tasks in the leaf's slot and disk queues (only a leaf's first
    task ships), and the placements of other jobs emitted at the same
    instant, which read the leaf's load.
    """
    return net.transfer(src, dst, max(1, int(nbytes)), cls)


def deliver(
    net: NetworkTopology,
    src: NodeAddress,
    dst: NodeAddress,
    nbytes: int,
    cls: TrafficClass,
) -> Generator[Event, None, None]:
    """:func:`send` for the way back up the tree; ``yield from`` it.

    A hop between co-located roles is not a message: master, a rack stem
    and a leaf may share one node, and what passes between them crosses
    no link, takes no simulated time and loads nothing — so here it costs
    no event either.  For results, status updates, spills and heartbeats,
    which happen at instants of their own.  The rule does not depend on a
    fault injector being installed: ``FaultInjector.intercept_transfer``
    exempts node-local transfers and draws no randomness for them.
    """
    if src != dst:
        yield net.transfer(src, dst, max(1, int(nbytes)), cls)


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
