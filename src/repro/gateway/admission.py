"""Admission control: slots, memory budgets, tenant queues (S52).

The controller decides, for every queued query, *queue or run or
reject*:

* a tenant whose admission queue is at ``max_queued`` rejects new
  submissions outright (back-pressure beats unbounded backlog);
* a query waits while the cluster-wide slot pool, the cluster-wide
  memory budget, the tenant's concurrent-slot quota, or the tenant's
  memory budget is exhausted;
* among runnable queries, the weighted deficit-round-robin picks whose
  turn it is.

Memory estimates are planner-derived: broadcast (dimension) tables are
held whole for the query's lifetime, plus one peak task working set —
the §III resource-agreement currency, kept deliberately simple and
deterministic.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.columnar.table import BlockRef
from repro.errors import GatewayOverloadedError
from repro.gateway.config import GatewayConfig
from repro.gateway.fairshare import DeficitRoundRobin, TenantQueue
from repro.gateway.session import GatewayQuery
from repro.planner.physical import plan_shape
from repro.sql.analyzer import AnalyzedQuery


def _scan_bytes(block, columns) -> float:
    encoded = block.bytes_for(columns)
    if encoded <= 0:
        # Projection-free scans (SELECT COUNT(*)) still hold per-row
        # presence state; floor the estimate so no query is "free".
        encoded = 8 * block.num_rows
    return encoded * block.scale_factor


def estimate_query_memory(analyzed: AnalyzedQuery, blocks: Sequence[BlockRef], catalog) -> float:
    """Planner-derived working-set estimate, in bytes, for ``analyzed``
    scanning ``blocks`` (:func:`~repro.planner.physical.scan_blocks`)."""
    shape = plan_shape(analyzed)
    peak_task = max((_scan_bytes(ref, shape.base_columns) for ref in blocks), default=0.0)
    broadcast = 0.0
    for bc in shape.broadcasts:
        table = catalog.get(bc.table_name)
        broadcast += sum(
            ref.bytes_for(bc.columns) * ref.scale_factor for ref in table.blocks
        )
    return float(broadcast + peak_task)


class AdmissionController:
    """Budgets plus the fair-share pick over tenant queues."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        self.drr = DeficitRoundRobin()
        self.running = 0
        self.memory_in_use = 0.0
        self.rejected_total = 0

    # -- tenant registry ---------------------------------------------------

    def tenant(self, name: str) -> TenantQueue:
        return self.drr.tenant(name, self.config.policy_for(name))

    def tenants(self):
        return self.drr.tenants.values()

    # -- queueing ----------------------------------------------------------

    def enqueue(self, tq: TenantQueue, query: GatewayQuery) -> None:
        """Queue a pre-flighted query; raises when the tenant queue is full."""
        if tq.depth >= tq.policy.max_queued:
            tq.rejected += 1
            self.rejected_total += 1
            raise GatewayOverloadedError(
                f"tenant {tq.name!r} admission queue is full "
                f"({tq.depth}/{tq.policy.max_queued}); retry later"
            )
        tq.admitted += 1
        self.drr.enqueue(tq, query)

    def queue_depth(self) -> int:
        return sum(tq.depth for tq in self.tenants())

    # -- admission decision ------------------------------------------------

    def _memory_fits(self, in_use: float, budget: float, need: float, running: int) -> bool:
        if in_use + need <= budget:
            return True
        # An over-budget singleton still runs alone: otherwise a query
        # estimated above the budget would starve forever.
        return running == 0 and in_use == 0.0

    def can_serve(self, tq: TenantQueue, query: GatewayQuery) -> bool:
        """Constraints beyond fair share for one head-of-queue query."""
        if tq.running >= tq.policy.max_concurrent:
            return False
        if not self._memory_fits(
            self.memory_in_use, self.config.memory_budget_bytes, query.memory_bytes, self.running
        ):
            return False
        return self._memory_fits(
            tq.memory_in_use, tq.policy.memory_budget_bytes, query.memory_bytes, tq.running
        )

    def next(self) -> Optional[Tuple[TenantQueue, GatewayQuery]]:
        """The next query to emit, or None while budgets are exhausted."""
        if self.running >= self.config.total_slots:
            return None
        return self.drr.next_eligible(self.can_serve)

    # -- slot accounting ---------------------------------------------------

    def on_emit(self, tq: TenantQueue, query: GatewayQuery) -> None:
        self.running += 1
        self.memory_in_use += query.memory_bytes
        tq.running += 1
        tq.memory_in_use += query.memory_bytes
        tq.served_units += query.cost_units

    def on_release(self, tq: TenantQueue, query: GatewayQuery) -> None:
        self.running -= 1
        self.memory_in_use -= query.memory_bytes
        tq.running -= 1
        tq.memory_in_use -= query.memory_bytes
