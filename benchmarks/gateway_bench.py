"""Gateway serving bench: 1000 Zipf-skewed sessions under saturation (S52).

Two runs over the same 16k-row table:

* ``idle`` — the same query mix trickled through one slot with no
  overlap, establishing the uncontended service-latency floor;
* ``saturated_1000_sessions`` — 1000 sessions across 8 Zipf-skewed
  tenants arriving within a 2-second window against 4 gateway slots,
  which backlogs every tenant and makes admission control + fair share
  do the work.

All latencies are *simulated* seconds, so runs are deterministic for a
fixed seed; the committed baseline gates regressions tightly.  The
acceptance invariants are the S52 bar: every session completes, p99
service latency stays within 3x the idle p50 (admission control protects
in-cluster latency; the pressure shows up as queue wait, reported
separately), and the windowed Jain fairness index stays >= 0.9.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.gateway import GatewayConfig, TenantPolicy, run_sessions
from repro.workload.generator import MultiTenantConfig, multi_tenant_sessions

TABLE_ROWS = 16_000
BLOCK_ROWS = 4_096
NUM_TENANTS = 8
NUM_SESSIONS = 1_000
SEED = 42

#: The S52 acceptance bar.
MAX_P99_OVER_IDLE_P50 = 3.0
MIN_JAIN = 0.9

#: Regression tolerance vs the committed baseline (simulated metrics are
#: deterministic; the slack absorbs intentional cost-model changes only).
LATENCY_TOLERANCE = 1.5
JAIN_TOLERANCE = 0.05


def _build_cluster(total_slots: int) -> FeisuCluster:
    gw = GatewayConfig(
        total_slots=total_slots,
        default_policy=TenantPolicy(
            max_concurrent=max(2, total_slots // 2), max_queued=2048
        ),
    )
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1, racks_per_datacenter=2, nodes_per_rack=4, gateway=gw
        )
    )
    rng = np.random.default_rng(5)
    columns = {
        "c1": rng.integers(0, 100, TABLE_ROWS),
        "c2": rng.integers(0, 10, TABLE_ROWS),
        "c3": rng.integers(0, 1000, TABLE_ROWS),
        "clicks": rng.random(TABLE_ROWS),
    }
    schema = Schema.of(
        c1=DataType.INT64, c2=DataType.INT64, c3=DataType.INT64, clicks=DataType.FLOAT64
    )
    cluster.load_table("T", schema, columns, storage="storage-a", block_rows=BLOCK_ROWS)
    return cluster


def _traces(cluster: FeisuCluster, config: MultiTenantConfig):
    schema = cluster.catalog.get("T").schema
    traces = multi_tenant_sessions(
        "T",
        schema,
        config,
        value_ranges={"c1": (0, 100), "c2": (0, 10), "c3": (0, 1000)},
    )
    for user in sorted({t.user for t in traces}):
        cluster.create_user(user, domains=["*"])
        cluster.acl.grant(user, "T")
    return traces


def run_suite() -> Dict[str, Dict[str, float]]:
    results: Dict[str, Dict[str, float]] = {}

    # Uncontended floor: one slot, sessions trickled with no overlap.
    idle_cluster = _build_cluster(total_slots=1)
    idle_traces = _traces(
        idle_cluster,
        MultiTenantConfig(
            num_tenants=NUM_TENANTS,
            num_sessions=50,
            think_time_s=1.0,
            open_window_s=5.0,
            seed=SEED,
        ),
    )
    idle = run_sessions(idle_cluster.gateway, idle_traces, limit_s=1e6)
    results["idle"] = {
        "submitted": float(idle.as_dict()["submitted"]),
        "service_p50_s": idle.service_p50_s,
        "service_p99_s": idle.service_p99_s,
    }

    # Saturation: 1000 sessions in a 2 s window against 4 slots.
    cluster = _build_cluster(total_slots=4)
    traces = _traces(
        cluster,
        MultiTenantConfig(
            num_tenants=NUM_TENANTS,
            num_sessions=NUM_SESSIONS,
            zipf_exponent=1.1,
            queries_per_session=2.0,
            think_time_s=0.5,
            open_window_s=2.0,
            seed=SEED,
        ),
    )
    report = run_sessions(cluster.gateway, traces, limit_s=1e6)
    saturated = report.as_dict()
    saturated["p99_over_idle_p50"] = (
        report.service_p99_s / idle.service_p50_s if idle.service_p50_s else 0.0
    )
    results["saturated_1000_sessions"] = saturated
    return results


def acceptance_failures(results: Dict[str, Dict[str, float]]) -> List[str]:
    """Violations of the S52 acceptance bar (empty = pass)."""
    problems: List[str] = []
    sat = results["saturated_1000_sessions"]
    if sat["sessions"] < NUM_SESSIONS:
        problems.append(f"only {sat['sessions']:.0f}/{NUM_SESSIONS} sessions ran")
    unresolved = sat["submitted"] - (
        sat["completed"] + sat["failed"] + sat["killed"] + sat["timed_out"]
    )
    if unresolved:
        problems.append(f"{unresolved:.0f} admitted queries never resolved")
    if sat["completed"] < sat["submitted"]:
        problems.append(
            f"{sat['submitted'] - sat['completed']:.0f} queries did not succeed"
        )
    if sat["p99_over_idle_p50"] > MAX_P99_OVER_IDLE_P50:
        problems.append(
            f"p99 service latency {sat['service_p99_s']:.4f}s is "
            f"{sat['p99_over_idle_p50']:.2f}x the idle p50 "
            f"(limit {MAX_P99_OVER_IDLE_P50:.1f}x)"
        )
    if sat["jain_fairness"] < MIN_JAIN:
        problems.append(
            f"windowed Jain fairness {sat['jain_fairness']:.3f} < {MIN_JAIN}"
        )
    if sat["fairness_tenants"] < NUM_TENANTS:
        problems.append(
            f"only {sat['fairness_tenants']:.0f}/{NUM_TENANTS} tenants were "
            "backlogged together — the run is not saturated enough to measure"
        )
    return problems


def regressions(
    results: Dict[str, Dict[str, float]], baseline: Dict[str, Dict[str, float]]
) -> List[str]:
    """Drift vs the committed baseline (empty = pass)."""
    problems: List[str] = []
    sat, base = results["saturated_1000_sessions"], baseline["saturated_1000_sessions"]
    for key in ("service_p99_s", "total_p99_s", "queue_wait_p99_s", "makespan_s"):
        if base.get(key, 0.0) > 0.0 and sat[key] > base[key] * LATENCY_TOLERANCE:
            problems.append(
                f"{key} regressed: {sat[key]:.4f}s vs baseline {base[key]:.4f}s "
                f"(tolerance {LATENCY_TOLERANCE}x)"
            )
    if sat["jain_fairness"] < base.get("jain_fairness", 0.0) - JAIN_TOLERANCE:
        problems.append(
            f"jain_fairness dropped: {sat['jain_fairness']:.3f} vs baseline "
            f"{base['jain_fairness']:.3f}"
        )
    return problems
