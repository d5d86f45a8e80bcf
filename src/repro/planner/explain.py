"""EXPLAIN: human-readable physical plans.

Renders what the master decided for a query — the §III-B "optimized
query execution plan" — including predicate classification (indexable
scan CNF vs. post-join residual), block pruning, projection pushdown,
broadcast joins and cost estimates.  Exposed to users through
:meth:`repro.client.FeisuClient.explain`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.planner.cost import CostModel
from repro.planner.physical import PhysicalPlan


def explain(plan: PhysicalPlan, cost_model: Optional[CostModel] = None) -> str:
    """Render a physical plan as an indented tree."""
    lines, _anchors = _plan_lines(plan, cost_model)
    return "\n".join(lines)


def _plan_lines(
    plan: PhysicalPlan,
    cost_model: Optional[CostModel] = None,
) -> "tuple[List[str], Dict[str, int]]":
    """The explain tree plus anchor indices for operator annotations."""
    # A def-time `CostModel()` default would be one shared instance for
    # every explain() call ever made; construct per call instead.
    cost_model = cost_model if cost_model is not None else CostModel()
    analyzed = plan.analyzed
    lines: List[str] = [f"Plan {plan.plan_id}"]
    anchors: Dict[str, int] = {}

    def add(depth: int, text: str) -> None:
        lines.append("  " * depth + text)

    add(1, f"output: {', '.join(analyzed.output_names)}")

    if analyzed.query.limit is not None:
        add(1, f"limit: {analyzed.query.limit}")
    if analyzed.query.order_by:
        keys = ", ".join(
            f"{item.expr}{'' if item.ascending else ' DESC'}" for item in analyzed.query.order_by
        )
        add(1, f"order by: {keys}")

    if plan.is_aggregate:
        aggs = ", ".join(str(a) for a in analyzed.aggregates)
        add(1, f"aggregate: {aggs or '(none)'}")
        anchors["aggregate"] = len(lines) - 1
        if analyzed.group_keys:
            add(2, f"group keys: {', '.join(str(k) for k in analyzed.group_keys)}")
        if analyzed.query.having is not None:
            add(2, f"having: {analyzed.query.having}")

    for bc in plan.broadcasts:
        add(1, f"broadcast join [{bc.kind.value}] {bc.table_name} AS {bc.binding}")
        anchors.setdefault("broadcast", len(lines) - 1)
        add(2, f"on: {bc.condition}")
        add(2, f"columns: {', '.join(bc.columns)}")

    if plan.post_filter is not None:
        add(1, f"post-join filter: {plan.post_filter}")

    table = analyzed.tables[analyzed.base_binding]
    add(1, f"scan {table.name} ({len(plan.tasks)} tasks, {plan.pruned_blocks} blocks pruned)")
    anchors["scan"] = len(lines) - 1
    if plan.scan_cnf.clauses:
        add(2, "scan predicates (CNF, SmartIndex-eligible):")
        for clause in plan.scan_cnf.clauses:
            add(3, str(clause))
    else:
        add(2, "scan predicates: (none)")
    add(2, f"read columns: {', '.join(plan.tasks[0].columns) if plan.tasks else '(no tasks)'}")
    add(2, f"payload columns: {', '.join(plan.payload_columns) or '(none)'}")

    scan_bytes = plan.estimated_scan_bytes()
    add(2, f"estimated scan: {_fmt_bytes(scan_bytes)} encoded")
    if plan.tasks:
        from repro.planner.selectivity import estimate_result_rows, estimate_selectivity

        selectivity = estimate_selectivity(plan.scan_cnf, table)
        add(
            2,
            f"estimated selectivity: {selectivity:.3f} "
            f"(~{estimate_result_rows(plan):,.0f} of {table.modeled_rows:,.0f} modeled rows)",
        )
    if plan.tasks:
        cold = sum(cost_model.task_seconds(t, plan.scan_cnf) for t in plan.tasks)
        warm = sum(
            cost_model.task_seconds(t, plan.scan_cnf, index_covered=True) for t in plan.tasks
        )
        add(2, f"estimated task seconds: {cold:.3f} cold / {warm:.3f} index-covered")
    return lines, anchors


def explain_analyze(
    plan: PhysicalPlan,
    job,
    cost_model: Optional[CostModel] = None,
) -> str:
    """Render the plan annotated with what actually happened.

    ``job`` is an executed :class:`~repro.cluster.jobs.Job` that ran with
    ``JobOptions.trace=True``.  Each operator line gains ``actual:``
    annotations — simulated seconds, rows, modeled bytes and index hit
    counts next to the cost model's estimates — read off the job's
    :class:`~repro.obs.trace.Tracer` and its counters.
    """
    lines, anchors = _plan_lines(plan, cost_model)
    stats = job.stats
    timeline = job.task_timeline
    trace = job.trace
    totals = trace.totals_by_name()

    def tot(name: str) -> "tuple[int, float]":
        agg = totals.get(name)
        return (int(agg["count"]), agg["total_s"]) if agg else (0, 0.0)

    inserts: List["tuple[int, List[str]]"] = []
    if "scan" in anchors:
        scan_lines: List[str] = []
        _n_scan, scan_s = tot("scan")
        rows_in = trace.tag_sum("rows_in", "scan")
        rows_out = trace.tag_sum("rows_out", "scan")
        n_probe, _ = tot("index_probe")
        n_wait, wait_s = tot("queue_wait")
        scan_lines.append(
            f"actual: {len(timeline)} attempts, {scan_s:.4f}s scan, "
            f"{stats.io_bytes_modeled / 1e6:.1f} MB modeled, "
            f"rows {int(rows_in):,} -> {int(rows_out):,}"
        )
        scan_lines.append(
            f"actual index: {stats.index_full_covers} full covers, "
            f"{stats.index_clause_hits} clause hits, "
            f"{stats.index_clause_misses} misses ({n_probe} probes)"
        )
        tiers = trace.tag_values("tier", "scan")
        if tiers:
            # Tiering line: the tag only exists when the flag-gated
            # daemon is attached, so default-mode output is unchanged.
            parts = ", ".join(f"{n} {t}" for t, n in sorted(tiers.items()))
            scan_lines.append(f"actual tier: {parts}")
        layouts = trace.tag_values("layout", "scan")
        if layouts:
            # Trojan-replica line (S54): the tag only exists when the
            # flag-gated layout daemon is attached, so default-mode
            # output is unchanged.
            parts = ", ".join(f"{n} {t}" for t, n in sorted(layouts.items()))
            scan_lines.append(f"actual layout: {parts}")
        scan_lines.append(f"actual queue wait: {wait_s:.4f}s over {n_wait} slot waits")
        if stats.adaptive_waves:
            # Adaptive line: the counters are only nonzero when the
            # flag-gated re-optimizer ran, so default output is unchanged.
            scan_lines.append(
                f"actual adaptive: {stats.adaptive_waves} waves, "
                f"{stats.adaptive_replans} re-plans, {stats.adaptive_splits} splits, "
                f"{stats.adaptive_partitions_recovered} partitions recovered, "
                f"{stats.adaptive_tasks_skipped} tasks skipped"
            )
        inserts.append((anchors["scan"], scan_lines))
    if "aggregate" in anchors:
        n_agg, agg_s = tot("aggregate")
        groups = job.result.num_rows if job.result is not None else 0
        inserts.append(
            (
                anchors["aggregate"],
                [
                    f"actual: {groups} groups, {agg_s:.4f}s partial-aggregate CPU "
                    f"over {n_agg} attempts"
                ],
            )
        )
    if "broadcast" in anchors:
        ship_bytes = trace.tag_sum("bytes", "broadcast_ship")
        n_ship, _ = tot("broadcast_ship")
        fetch_bytes = trace.tag_sum("bytes", "fetch_broadcasts")
        _, fetch_s = tot("fetch_broadcasts")
        inserts.append(
            (
                anchors["broadcast"],
                [
                    f"actual: fetched {fetch_bytes / 1e6:.1f} MB in {fetch_s:.4f}s, "
                    f"shipped {ship_bytes / 1e6:.1f} MB to {n_ship} leaves"
                ],
            )
        )
    for idx, ins in sorted(inserts, key=lambda pair: -pair[0]):
        anchor = lines[idx]
        indent = " " * (len(anchor) - len(anchor.lstrip()) + 2)
        lines[idx + 1 : idx + 1] = [indent + text for text in ins]

    lines.append("")
    lines.append("execution:")
    queued = (
        f" (queued {job.started_at - job.submitted_at:.4f}s)"
        if job.started_at and job.started_at > job.submitted_at
        else ""
    )
    lines.append(f"  response: {stats.response_time_s:.4f}s simulated{queued}")
    if job.replanned_plan_digest:
        lines.append(
            f"  plan digest: {job.plan_digest} -> {job.replanned_plan_digest} (re-planned)"
        )
    lines.append(
        f"  tasks: {stats.tasks_completed}/{stats.tasks_total} completed, "
        f"{stats.tasks_reused} reused, {stats.backups_launched} backups, "
        f"{stats.results_spilled} spilled"
    )
    covered = sum(t.index_full_cover for t in timeline)
    lines.append(
        f"  SmartIndex: {covered}/{len(timeline)} attempts fully covered, "
        f"{stats.io_bytes_modeled / 1e6:.1f} MB modeled scan"
    )
    for phase in (
        "fetch_broadcasts",
        "dispatch",
        "broadcast_ship",
        "queue_wait",
        "index_probe",
        "scan",
        "aggregate",
        "project",
        "result_return",
    ):
        if phase in totals:
            count, total_s = tot(phase)
            lines.append(f"  phase {phase}: {total_s:.4f}s over {count} spans")
    by_class = trace.bytes_by_class()
    if by_class:
        parts = ", ".join(
            f"{cls} {by_class[cls] / 1e3:.1f} KB" for cls in sorted(by_class)
        )
        lines.append(f"  traffic: {parts}")
    if timeline:
        slowest = sorted(timeline, key=lambda t: -t.duration_s)[:5]
        lines.append("  slowest task attempts:")
        for t in slowest:
            flags = "".join(
                [" [covered]" if t.index_full_cover else "", " [backup]" if t.backup else ""]
            )
            lines.append(
                f"    {t.task_id} on {t.worker_id}: {t.duration_s * 1000:.2f} ms, "
                f"{t.io_bytes_modeled / 1e6:.1f} MB{flags}"
            )
    return "\n".join(lines)


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB", "TB", "PB"):
        if n < 1024 or unit == "PB":
            return f"{n:.1f} {unit}"
        n /= 1024
    return f"{n:.1f} PB"  # pragma: no cover
