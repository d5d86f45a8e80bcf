"""Gateway shape and per-tenant resource agreements (S52).

The paper's §III "resource agreement" is the contract between Feisu and
each business tenant: how much of the shared cluster a tenant may hold
at once.  :class:`TenantPolicy` is that contract for one tenant —
fair-share weight, concurrent-slot quota, queue depth, memory budget,
query timeout — and :class:`GatewayConfig` is the deployment-wide shape
(global slot and memory budgets, scheduler quantum).  It plugs into
:class:`repro.core.feisu.FeisuConfig` via the ``gateway`` field; leaving
that field ``None`` (the default) builds no gateway at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class TenantPolicy:
    """One tenant's resource agreement."""

    #: Fair-share weight: a tenant with weight 2 receives twice the
    #: service of a weight-1 tenant while both are backlogged.
    weight: float = 1.0
    #: Concurrent-slot quota: at most this many of the tenant's queries
    #: run at once, however many gateway slots are free.
    max_concurrent: int = 8
    #: Admission-queue depth; submissions beyond it are rejected with
    #: :class:`~repro.errors.GatewayOverloadedError` (back-pressure).
    max_queued: int = 256
    #: Cap on the summed memory estimates of the tenant's running
    #: queries; queries queue (not reject) while it is exhausted.
    memory_budget_bytes: float = float("inf")
    #: Default per-query timeout measured from *submission* (queue wait
    #: included); ``None`` = unbounded.  Overridable per query.
    query_timeout_s: Optional[float] = None


@dataclass
class GatewayConfig:
    """Deployment-wide gateway knobs."""

    #: Cluster-wide concurrent-query slots.  Must not exceed the
    #: master's ``max_concurrent_jobs`` — otherwise the master's own
    #: FIFO candidate queue would re-order what the fair-share scheduler
    #: emits.
    total_slots: int = 32
    #: Cluster-wide cap on the summed memory estimates of running
    #: queries.  A single query estimated above the cap is still served
    #: when it would run alone (no permanent starvation).
    memory_budget_bytes: float = float("inf")
    #: Deficit-round-robin quantum, in task units added per round and
    #: unit of weight.  Larger quanta are cheaper but burstier.
    quantum_units: float = 4.0
    #: Policy for tenants without an explicit entry in ``tenants``.
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    #: Per-tenant resource agreements, keyed by tenant name.
    tenants: Dict[str, TenantPolicy] = field(default_factory=dict)

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self.tenants.get(tenant, self.default_policy)
