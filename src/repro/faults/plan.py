"""Fault plans: composable, declarative failure schedules.

A :class:`FaultPlan` is the *description* of everything that will go
wrong in a run — nothing here touches the simulator.  It composes two
kinds of primitive:

* **scheduled entries** pinned to absolute simulated times (crash and
  restart a worker, suppress heartbeats, slow a node down, partition
  racks, stall a storage system's first byte);
* **message policies** consulted per message by the injector (drop,
  delay, duplicate), each with an optional traffic-class / endpoint
  filter and an active window, fired through the injector's seeded RNG.

Determinism contract: a plan plus a seed fully determines every injected
fault, because the simulation itself is deterministic and the injector
draws from one seeded generator in event order.  An **empty plan is
provably zero-overhead**: no interception point schedules an event,
consumes randomness, or changes a code path (enforced by the chaos
suite's zero-overhead gate, same standard as ``pytest -m obs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.sim.netmodel import NodeAddress, TrafficClass

#: Rack coordinates: (datacenter, rack).
RackId = Tuple[int, int]


# -- scheduled entries -------------------------------------------------------


@dataclass(frozen=True)
class CrashWindow:
    """Kill one worker's process at ``at``; optionally restart it later.

    ``restart_after=None`` leaves it down for the rest of the run.
    """

    worker: str
    at: float
    restart_after: Optional[float] = None


@dataclass(frozen=True)
class ZombieWindow:
    """Heartbeat loss *without* process death (§III-C's failure sweep
    pathology): the worker keeps serving tasks but its heartbeats are
    swallowed for ``duration`` seconds, so the cluster manager declares
    it dead and must later re-admit it."""

    worker: str
    at: float
    duration: float


@dataclass(frozen=True)
class SlowNode:
    """Degrade one worker's devices by ``factor`` for a window — the
    consolidated-container interference straggler (§V-B), also used for
    clock-skewed stragglers (a skewed node *behaves* slow)."""

    worker: str
    at: float
    duration: float
    factor: float = 10.0


@dataclass(frozen=True)
class RackPartition:
    """Network partition: messages crossing between ``racks`` and the
    rest of the cluster are dropped while the window is active.  A
    single-rack tuple models a ToR/link failure; multiple racks model a
    datacenter-side split."""

    racks: Tuple[RackId, ...]
    at: float
    duration: float


@dataclass(frozen=True)
class StorageStall:
    """Cold-storage pathology: the named system's first-byte latency
    spikes by ``extra_first_byte_s`` during the window.  ``workers``
    restricts the stall to tasks *running on* those workers (a subset of
    cold replica holders), so speculative backups elsewhere can win."""

    system: str
    at: float
    duration: float
    extra_first_byte_s: float = 1.0
    workers: Optional[Tuple[str, ...]] = None


# -- message policies --------------------------------------------------------


@dataclass(frozen=True)
class MessageDrop:
    """Drop matching messages with ``probability``; the sender observes a
    :class:`~repro.errors.FaultInjectedError` after the plan's RPC
    timeout, exactly like a lost datagram behind a timed-out RPC."""

    probability: float
    cls: Optional[TrafficClass] = None
    src: Optional[NodeAddress] = None
    dst: Optional[NodeAddress] = None
    at: float = 0.0
    duration: float = math.inf


@dataclass(frozen=True)
class MessageDelay:
    """Hold matching messages for ``extra_s`` beyond their modeled
    transfer time (congested or misrouted path)."""

    extra_s: float
    probability: float = 1.0
    cls: Optional[TrafficClass] = None
    src: Optional[NodeAddress] = None
    dst: Optional[NodeAddress] = None
    at: float = 0.0
    duration: float = math.inf


@dataclass(frozen=True)
class MessageDuplicate:
    """Deliver matching messages twice: the duplicate copy pays the link
    model again (bandwidth/queueing pressure), exercising the cluster's
    at-most-once result accounting."""

    probability: float
    cls: Optional[TrafficClass] = None
    at: float = 0.0
    duration: float = math.inf


ScheduledEntry = Union[CrashWindow, ZombieWindow, SlowNode, RackPartition, StorageStall]
MessagePolicy = Union[MessageDrop, MessageDelay, MessageDuplicate]
FaultEntry = Union[ScheduledEntry, MessagePolicy]


@dataclass
class FaultPlan:
    """A composition of fault primitives plus fabric-wide knobs."""

    entries: List[FaultEntry] = field(default_factory=list)
    #: Sender-side timeout before a dropped message surfaces as a
    #: :class:`~repro.errors.FaultInjectedError`.
    rpc_timeout_s: float = 1.0

    def add(self, *entries: FaultEntry) -> "FaultPlan":
        """Append primitives; returns ``self`` for chaining."""
        self.entries.extend(entries)
        return self

    def __len__(self) -> int:
        return len(self.entries)
