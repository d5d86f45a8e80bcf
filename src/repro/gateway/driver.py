"""Concurrent multi-session replay driver and its report (S52).

:func:`run_sessions` replays :class:`~repro.workload.generator.SessionTrace`
streams against one gateway on the simulated clock: sessions open at
their trace times, submit their queries with think-time gaps, and the
driver steps the simulation until every admitted query resolves.  The
resulting :class:`MultiSessionReport` carries the serving-quality
numbers the gateway bench gates on — p50/p99 simulated latency split
into queue wait and service, plus a demand-normalized Jain fairness
index across tenants.

Fairness is measured *windowed*: the run splits into time slices, and a
slice contributes a Jain index over the tenants backlogged for its whole
duration (weight-normalized units emitted in the slice).  Conditioning
on contemporaneous demand is what makes the number meaningful — a
work-conserving scheduler hands the whole cluster to the last backlogged
tenant once everyone else drains, which whole-run averages would misread
as favoritism, and a light Zipf-tail tenant that never queued is not
evidence about the scheduler either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.metrics import counters
from repro.errors import FeisuError, GatewayOverloadedError
from repro.gateway.fairshare import outcome_counts
from repro.gateway.gateway import SQLGateway
from repro.gateway.session import GatewayQuery, GatewaySession, QueryStatus
from repro.workload.generator import SessionTrace


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    xs = sorted(values)
    k = (len(xs) - 1) * q
    lo, hi = math.floor(k), math.ceil(k)
    if lo == hi:
        return float(xs[lo])
    return float(xs[lo] + (xs[hi] - xs[lo]) * (k - lo))


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, → 1/n = one hog."""
    if not allocations:
        return 1.0
    total = sum(allocations)
    squares = sum(x * x for x in allocations)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(allocations) * squares)


@dataclass
class TenantReport:
    """One tenant's share of a multi-session run."""

    tenant: str
    weight: float
    sessions: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    killed: int = 0
    timed_out: int = 0
    served_units: float = 0.0
    backlogged_s: float = 0.0
    queue_wait_p50_s: float = 0.0
    queue_wait_p99_s: float = 0.0
    #: served_units / (weight × backlogged_s); None when the tenant was
    #: not backlogged long enough to measure.
    normalized_rate: Optional[float] = None


@dataclass
class MultiSessionReport:
    """What the gateway bench gates on."""

    sessions: int = 0
    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    killed: int = 0
    timed_out: int = 0
    makespan_s: float = 0.0
    #: Emitted→finished simulated latency over successful queries.
    service_p50_s: float = 0.0
    service_p99_s: float = 0.0
    #: Submission→finished simulated latency (wait + service).
    total_p50_s: float = 0.0
    total_p99_s: float = 0.0
    queue_wait_p50_s: float = 0.0
    queue_wait_p99_s: float = 0.0
    #: Windowed Jain index; ``fairness_tenants`` is how many tenants
    #: participated in at least one measured slice.
    jain_fairness: float = 1.0
    fairness_tenants: int = 0
    per_tenant: Dict[str, TenantReport] = field(default_factory=dict)
    #: Every admitted query's handle, in submission order (the gateway
    #: forgets them once their closed sessions resolve).
    queries: List[GatewayQuery] = field(default_factory=list, repr=False)

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric view for JSON baselines and metrics."""
        return {name: float(value) for name, value in counters(self).items()}


def run_sessions(
    gateway: SQLGateway,
    traces: Sequence[SessionTrace],
    limit_s: float = float("inf"),
    min_backlog_fraction: float = 0.2,
) -> MultiSessionReport:
    """Replay ``traces`` concurrently and drain the gateway.

    Users referenced by the traces must already exist on the cluster
    (with read grants); :class:`~repro.errors.GatewayOverloadedError`
    rejections are counted, any other submission error propagates.
    Each session closes once its last query is submitted, so the gateway
    forgets it and its handles when they resolve.  Returns the report;
    raises on deadlock or when the simulated clock passes ``limit_s``.
    """
    sim = gateway.cluster.sim
    start = sim.now
    pending = {"opens": len(traces), "submits": sum(len(t.queries) for t in traces)}
    handles: List[GatewayQuery] = []
    sessions: List[GatewaySession] = []
    # Queries each open session has still to submit, by session id.
    unsubmitted: Dict[str, int] = {}

    def _submit(session: GatewaySession, sql: str) -> None:
        pending["submits"] -= 1
        try:
            handles.append(session.submit(sql))
        except GatewayOverloadedError:
            pass  # counted on the tenant queue
        finally:
            unsubmitted[session.session_id] -= 1
            if not unsubmitted[session.session_id]:
                session.close()

    def _open(trace: SessionTrace) -> None:
        pending["opens"] -= 1
        session = gateway.open_session(trace.user, tenant=trace.tenant)
        sessions.append(session)
        unsubmitted[session.session_id] = len(trace.queries)
        if not trace.queries:
            session.close()
        for tq in trace.queries:
            sim.schedule(max(0.0, tq.at_s - (sim.now - start)), _submit, session, tq.sql)

    for trace in traces:
        sim.schedule(max(0.0, trace.opens_at_s - (sim.now - start)), _open, trace)

    while pending["opens"] or pending["submits"] or gateway.in_flight() > 0:
        if not sim.step():
            raise FeisuError("multi-session driver deadlock: work pending, no events")
        if sim.now - start > limit_s:
            raise FeisuError(f"multi-session run exceeded the {limit_s}s limit")

    return build_report(gateway, handles, sessions, start, min_backlog_fraction)


def windowed_fairness(
    gateway: SQLGateway,
    handles: Sequence[GatewayQuery],
    start_s: float,
    end_s: float,
    num_slices: int = 20,
) -> tuple:
    """(Jain index, participating-tenant count) over backlogged windows.

    Splits ``[start_s, end_s]`` into ``num_slices`` slices; a slice with
    at least two tenants backlogged throughout contributes the Jain index
    of their weight-normalized emitted units, weighted by the slice's
    total emitted units.  Returns ``(1.0, 0)`` when no slice qualifies
    (the run never had contended, overlapping demand).
    """
    if end_s <= start_s:
        return 1.0, 0
    spans = {tq.name: tq.spans(end_s) for tq in gateway.admission.tenants()}
    weights = {tq.name: max(tq.policy.weight, 1e-9) for tq in gateway.admission.tenants()}
    emissions = [
        (h.emitted_at, h.tenant, h.cost_units)
        for h in handles
        if h.emitted_at is not None
    ]
    emissions.sort(key=lambda e: e[0])
    width = (end_s - start_s) / num_slices
    weighted_sum = 0.0
    weight_total = 0.0
    participants: set = set()
    cursor = 0
    for i in range(num_slices):
        lo = start_s + i * width
        hi = lo + width
        backlogged = [
            name
            for name, sp in spans.items()
            if any(a <= lo and b >= hi for a, b in sp)
        ]
        # Advance through the time-sorted emissions once across slices.
        units: Dict[str, float] = {}
        while cursor < len(emissions) and emissions[cursor][0] < hi:
            _, tenant, cost = emissions[cursor]
            units[tenant] = units.get(tenant, 0.0) + cost
            cursor += 1
        if len(backlogged) < 2:
            continue
        allocations = [units.get(name, 0.0) / weights[name] for name in backlogged]
        slice_units = sum(units.get(name, 0.0) for name in backlogged)
        if slice_units <= 0.0:
            continue
        participants.update(backlogged)
        weighted_sum += jain_index(allocations) * slice_units
        weight_total += slice_units
    if weight_total == 0.0:
        return 1.0, 0
    return weighted_sum / weight_total, len(participants)


def build_report(
    gateway: SQLGateway,
    handles: Sequence[GatewayQuery],
    sessions: Sequence[GatewaySession],
    start_s: float,
    min_backlog_fraction: float = 0.2,
) -> MultiSessionReport:
    """Summarize a finished run (all ``handles`` terminal)."""
    now = gateway.cluster.sim.now
    tenants = list(gateway.admission.tenants())
    totals = outcome_counts(tenants)
    totals["submitted"] = totals.pop("admitted")
    report = MultiSessionReport(
        sessions=len(sessions), makespan_s=now - start_s, queries=list(handles), **totals
    )
    ok = [h for h in handles if h.status is QueryStatus.SUCCEEDED]
    report.service_p50_s = percentile([h.service_s for h in ok], 0.50)
    report.service_p99_s = percentile([h.service_s for h in ok], 0.99)
    report.total_p50_s = percentile([h.total_s for h in ok], 0.50)
    report.total_p99_s = percentile([h.total_s for h in ok], 0.99)
    report.queue_wait_p50_s = percentile([h.queue_wait_s for h in handles], 0.50)
    report.queue_wait_p99_s = percentile([h.queue_wait_s for h in handles], 0.99)

    sessions_per_tenant: Dict[str, int] = {}
    for session in sessions:
        sessions_per_tenant[session.tenant] = sessions_per_tenant.get(session.tenant, 0) + 1
    waits_per_tenant: Dict[str, List[float]] = {}
    for h in handles:
        waits_per_tenant.setdefault(h.tenant, []).append(h.queue_wait_s)

    for tq in tenants:
        busy = tq.backlogged_total(now)
        waits = waits_per_tenant.get(tq.name, [])
        tr = TenantReport(
            tenant=tq.name,
            weight=tq.policy.weight,
            sessions=sessions_per_tenant.get(tq.name, 0),
            served_units=tq.served_units,
            backlogged_s=busy,
            queue_wait_p50_s=percentile(waits, 0.50),
            queue_wait_p99_s=percentile(waits, 0.99),
            **outcome_counts([tq]),
        )
        if busy >= min_backlog_fraction * report.makespan_s and busy > 0.0:
            tr.normalized_rate = tq.served_units / (max(tq.policy.weight, 1e-9) * busy)
        report.per_tenant[tq.name] = tr
    report.jain_fairness, report.fairness_tenants = windowed_fairness(
        gateway, handles, start_s, now
    )
    return report
