"""Weighted deficit-round-robin across tenant queues (S52).

Classic DRR adapted to query serving: each backlogged tenant holds a
deficit counter; visiting the ring tops every eligible tenant up by
``quantum × weight`` and serves heads whose cost fits their deficit.
Costs are task units (a query's planned task count), so a tenant
issuing 40-task scans and a tenant issuing 1-task lookups still split
capacity by weight, not by query count.

The scheduler is work-conserving and O(#tenants) per pick: instead of
looping one quantum at a time, it computes the minimum number of rounds
until *some* eligible head fits and applies them in one step.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.gateway.config import TenantPolicy
from repro.gateway.session import GatewayQuery

#: Closed backlog intervals a tenant keeps, newest last: enough for a
#: fairness measurement over any recent run, not a log of every drain.
BACKLOG_SPANS_RETAINED = 4096

#: A tenant queue's lifecycle outcome counters, by attribute name: the
#: gateway snapshot and the multi-session report copy and total exactly
#: these through :func:`outcome_counts`.
OUTCOMES = ("admitted", "rejected", "completed", "failed", "killed", "timed_out")

#: Deficit-round-robin quantum, in task units added per round and unit
#: of weight.  Larger quanta are cheaper but burstier.
QUANTUM_UNITS = 4.0


def outcome_counts(queues: Iterable["TenantQueue"]) -> Dict[str, int]:
    """Each :data:`OUTCOMES` counter summed over ``queues``."""
    queues = list(queues)
    return {name: sum(getattr(tq, name) for tq in queues) for name in OUTCOMES}


class TenantQueue:
    """One tenant's admission queue plus its serving books."""

    def __init__(self, name: str, policy: TenantPolicy):
        self.name = name
        self.policy = policy
        self.queue: Deque[GatewayQuery] = deque()
        self.deficit = 0.0
        #: Currently running queries / their summed memory estimates.
        self.running = 0
        self.memory_in_use = 0.0
        # Lifecycle counters, one per name in OUTCOMES.
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.killed = 0
        self.timed_out = 0
        #: Task units granted to this tenant (counted at emission).
        self.served_units = 0.0
        #: Accumulated simulated seconds with a non-empty admission queue
        #: — the denominator for demand-normalized fairness (a tenant is
        #: only owed its share while it actually wants more service).
        self.backlogged_s = 0.0
        #: Closed backlog intervals, for windowed fairness measurement
        #: (fairness is only meaningful between tenants whose backlogs
        #: overlap in time).
        self.backlog_spans: Deque[Tuple[float, float]] = deque(maxlen=BACKLOG_SPANS_RETAINED)
        self._backlog_since: Optional[float] = None

    @property
    def depth(self) -> int:
        return len(self.queue)

    def note_backlog(self, now: float) -> None:
        """The queue just became (or stays) non-empty."""
        if self._backlog_since is None:
            self._backlog_since = now

    def note_drain(self, now: float) -> None:
        """The queue just emptied; bank the backlogged span."""
        if self._backlog_since is not None:
            self.backlogged_s += now - self._backlog_since
            self.backlog_spans.append((self._backlog_since, now))
            self._backlog_since = None

    def backlogged_total(self, now: float) -> float:
        """Backlogged seconds including any still-open span."""
        open_span = now - self._backlog_since if self._backlog_since is not None else 0.0
        return self.backlogged_s + open_span

    def spans(self, now: float) -> List[Tuple[float, float]]:
        """All backlog intervals, closing any still-open span at ``now``."""
        out = list(self.backlog_spans)
        if self._backlog_since is not None:
            out.append((self._backlog_since, now))
        return out

    def head(self) -> Optional[GatewayQuery]:
        return self.queue[0] if self.queue else None

    def remove(self, query: GatewayQuery) -> bool:
        try:
            self.queue.remove(query)
        except ValueError:
            return False
        if not self.queue:
            self.deficit = 0.0
        return True


class DeficitRoundRobin:
    """The tenant ring and its deficit bookkeeping."""

    def __init__(self) -> None:
        self.quantum_units = QUANTUM_UNITS
        self.tenants: Dict[str, TenantQueue] = {}
        self._ring: List[str] = []
        self._cursor = 0

    def tenant(self, name: str, policy: TenantPolicy) -> TenantQueue:
        """Get-or-create a tenant's queue (first contact registers it)."""
        tq = self.tenants.get(name)
        if tq is None:
            tq = TenantQueue(name, policy)
            self.tenants[name] = tq
            self._ring.append(name)
        return tq

    def enqueue(self, tq: TenantQueue, query: GatewayQuery) -> None:
        tq.queue.append(query)

    def next_eligible(
        self, can_serve: Callable[[TenantQueue, GatewayQuery], bool]
    ) -> Optional[Tuple[TenantQueue, GatewayQuery]]:
        """Pick the next (tenant, query) to emit, or None.

        ``can_serve`` expresses the admission constraints beyond fair
        share (per-tenant concurrency, memory budgets); tenants it
        blocks neither serve nor accrue deficit this pick.
        """
        order = [
            self.tenants[self._ring[(self._cursor + i) % len(self._ring)]]
            for i in range(len(self._ring))
        ] if self._ring else []
        eligible = [tq for tq in order if tq.queue and can_serve(tq, tq.queue[0])]
        if not eligible:
            return None
        for _attempt in range(2):
            for tq in eligible:
                head = tq.queue[0]
                if tq.deficit >= head.cost_units:
                    tq.queue.popleft()
                    tq.deficit -= head.cost_units
                    if not tq.queue:
                        # Standard DRR: an idle tenant banks no credit.
                        self.deficit_reset(tq)
                    self._cursor = (self._ring.index(tq.name) + 1) % len(self._ring)
                    return tq, head
            # No head fits: apply, in one step, the fewest whole rounds
            # after which the cheapest-to-reach head fits its deficit.
            rounds = min(
                math.ceil(
                    (tq.queue[0].cost_units - tq.deficit)
                    / (self.quantum_units * max(tq.policy.weight, 1e-9))
                )
                for tq in eligible
            )
            for tq in eligible:
                tq.deficit += rounds * self.quantum_units * tq.policy.weight
        return None  # pragma: no cover - the top-up guarantees a fit

    @staticmethod
    def deficit_reset(tq: TenantQueue) -> None:
        tq.deficit = 0.0
