"""Measurement of one workload in one process.

Order inside the process is fixed so that counts repeat: set-ups (each
with its own warm-up pass), one pass under cProfile, the timed passes,
then — only when per-layer metrics are wanted — the traced passes.
Every gated time is a median of tick-normalised ratios (``ticks.py``);
raw wall numbers go to the non-gated ``info`` block.
"""

from __future__ import annotations

import cProfile
import gc
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from typing import List

import numpy as np

import spans
import verify
from ticks import NOMINAL_TICK_S, TICKS_PER_REF_S, Meter
from workloads import WORKLOADS, Outcome

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Passes run with the span wrappers installed when layers are wanted.
TRACED_PASSES = 3
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass
class PassRecord:
    meter: Meter
    outcomes: List[Outcome]
    cpu_s: float

    @property
    def queries(self) -> int:
        return len(self.outcomes)


def nearest_rank(values: List[float], q: float) -> float:
    """Nearest-rank percentile: unchanged when every sample is repeated,
    so it does not depend on how many identical passes were timed."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _settle_heap() -> None:
    """Collect, then freeze what survives, before a pass.

    GC stays on during a pass, but the heap that exists when the pass
    starts is moved out of the collector's sight.  Left in, the one full
    collection each pass triggers scans everything the master has ever
    retained (every job, plan and result): a third of a late
    ``drill_index`` pass, growing with every pass and with how many rows
    the seed's predicates select.
    """
    gc.collect()
    gc.freeze()


def _passes(w, ctx, first_p: int, count: int, make_meter) -> List[PassRecord]:
    """``count`` passes, the last one keeping its results for checking."""
    records = []
    for i in range(count):
        _settle_heap()
        meter = make_meter()
        cpu0 = time.process_time()
        outcomes = w.run_pass(ctx, meter, first_p + i, i == count - 1)
        records.append(PassRecord(meter, outcomes, time.process_time() - cpu0))
    return records


def run_workload(name: str, seed: int, smoke: bool, want_e2e: bool, want_layers: bool) -> dict:
    """Measure one workload; returns the full report (metrics + info)."""
    w = WORKLOADS[name]
    marks = [("", time.perf_counter())]

    def phase_done(phase: str) -> None:
        marks.append((phase, time.perf_counter()))

    expected = None if smoke else verify.load_expected(name, seed)
    if expected is None:
        expected = {k: verify.summarize(r) for k, r in w.twin(seed, smoke).items()}
    phase_done("expected_answers")

    attempted = failed = 0

    def check(outcomes: List[Outcome]) -> None:
        nonlocal attempted, failed
        attempted += len(outcomes)
        failed += sum(o.failed for o in outcomes)
        if any(o.result is not None for o in outcomes):
            failed += verify.count_mismatches(outcomes, expected)

    # -- set-up, several times over; the last one is the one measured on ----
    setups: List[Meter] = []
    ctx = None
    for _ in range(SETUP_REPS if want_e2e else 1):
        ctx = None  # drop the previous cluster before building the next
        gc.unfreeze()
        _settle_heap()
        meter = Meter(w.K)
        ctx = w.build(seed, smoke, meter)
        warm = w.run_pass(ctx, meter, 0, True)
        setups.append(meter)
    check(warm)
    next_p = 1
    phase_done("setups")

    # -- one pass under cProfile, always at this position -------------------
    py_calls = None
    if want_e2e:
        _settle_heap()
        prof = cProfile.Profile()
        prof.enable()
        profiled = w.run_pass(ctx, Meter(0), next_p, False)
        prof.disable()
        # Summed over the profiler's own entries, one per code object.
        # ``pstats`` keys by (file, line, name) and lets the last entry of
        # a key overwrite the others: every dataclass-generated method is
        # ("<string>", 2, "__hash__") and the like, the profiler lists
        # entries in address order, and so ``pstats.total_calls`` moved by
        # up to 1 % from one process to the next.
        py_calls = sum(entry.callcount for entry in prof.getstats()) / len(profiled)
        check(profiled)
        next_p += 1
        phase_done("counted_pass")

    # Resident high-water mark once warm.  Read here, not at exit: the
    # master keeps every finished job and its result rows, so growth
    # during the timed passes tracks how many rows the seed's predicates
    # happen to select; that growth is reported, ungated, as
    # ``info.rss_at_exit_mb``.
    warm_rss_mb = _max_rss_mb()

    # -- timed passes, tracing off -------------------------------------------
    count = 2 if smoke else w.PASSES
    timed = _passes(w, ctx, next_p, count, lambda: Meter(w.K))
    next_p += count
    for rec in timed:
        check(rec.outcomes)
    costs = [rec.meter.cost_ticks for rec in timed]
    median_cost = statistics.median(costs)
    phase_done("timed_passes")

    report: dict = {"workload": name, "seed": seed, "metrics": {}, "layers": {}}
    if want_e2e:
        latencies = [o.sim_latency_s for rec in timed for o in rec.outcomes if not o.failed]
        report["metrics"] = {
            "qps_norm": (timed[0].queries / (median_cost / TICKS_PER_REF_S), "1/ref_s"),
            "py_calls_per_query": (py_calls, "count"),
            "sim_latency_p50_s": (nearest_rank(latencies, 0.50), "sim_s"),
            "sim_latency_p95_s": (nearest_rank(latencies, 0.95), "sim_s"),
            "setup_s": (statistics.median(m.cost_ref_s for m in setups), "s"),
            "peak_rss_mb": (warm_rss_mb, "MB"),
        }

    # -- traced passes: per-layer metrics only --------------------------------
    if want_layers:
        report["layers"] = _traced(w, ctx, next_p, 1 if smoke else TRACED_PASSES, timed, check, seed)
        phase_done("traced_passes")

    op_walls = [x for rec in timed for x in rec.meter.op_walls]
    total_q = sum(rec.queries for rec in timed)
    total_op_s = sum(rec.meter.op_s for rec in timed)
    ticks = sum(rec.meter.ticks for rec in timed)
    report["attempted"], report["failed"] = attempted, failed
    report["info"] = {
        "error_rate": failed / attempted,
        "passes": count,
        "queries_per_pass": timed[0].queries,
        "wall_qps": total_q / total_op_s,
        "cpu_ms_per_query": 1e3 * sum(rec.cpu_s for rec in timed) / total_q,
        "op_wall_p50_ms": 1e3 * nearest_rank(op_walls, 0.50),
        "op_wall_p95_ms": 1e3 * nearest_rank(op_walls, 0.95),
        "rss_at_exit_mb": _max_rss_mb(),
        "setup_wall_s": setups[-1].op_s,
        "setup_ref_s": [m.cost_ref_s for m in setups],
        "machine_speed_index": sum(rec.meter.tick_s for rec in timed) / ticks / NOMINAL_TICK_S,
        "pass_cost_ticks": costs,
        "phase_wall_s": {
            phase: end - marks[i][1] for i, (phase, end) in enumerate(marks[1:])
        },
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    return report


def _traced(w, ctx, first_p: int, count: int, timed, check, seed: int) -> dict:
    """Run ``count`` passes with the wrappers installed and derive every
    per-layer metric from their spans and from counts taken beside them."""
    cluster = ctx["cluster"]
    index_before = cluster.aggregate_index_stats()
    rec = spans.Recorder()
    rec.install()
    try:
        traced = _passes(w, ctx, first_p, count, lambda: spans.TracedMeter(w.K, rec))
    finally:
        rec.uninstall()
    rec.end_pass()
    for record in traced:
        check(record.outcomes)
    os.makedirs(OUT_DIR, exist_ok=True)
    rec.dump(
        os.path.join(OUT_DIR, f"trace_{w.name}.json"),
        {"workload": w.name, "seed": seed, "traced_passes": len(traced)},
    )

    index_after = cluster.aggregate_index_stats()

    def index_delta(*fields: str) -> int:
        return sum(getattr(index_after, f) - getattr(index_before, f) for f in fields)

    queries = sum(r.queries for r in traced)
    wall = rec.total_s("harness.op")
    jobs = [o.stats for r in traced for o in r.outcomes if o.stats is not None]
    result_rows = sum(
        o.result.num_rows for o in traced[-1].outcomes if o.result is not None
    )

    def share(*names: str) -> float:
        return rec.self_s(*names) / wall

    def per_query(*names: str) -> float:
        return rec.calls(*names) / queries

    untraced_cost = statistics.median(r.meter.cost_ticks for r in timed)
    traced_cost = statistics.median(r.meter.cost_ticks for r in traced)
    quarter = max(1, len(timed) // 4)
    costs = [r.meter.cost_ticks for r in timed]
    probes = index_delta("hits", "complement_hits", "subsumption_hits", "misses")
    ingest_ref_s = (
        rec.total_s("ingest.ingest")
        / (sum(r.meter.tick_s for r in traced) / sum(r.meter.ticks for r in traced))
        / TICKS_PER_REF_S
    )
    ingested_rows = sum(len(b) for hour in ctx.get("batches", []) for b in hour) * len(traced)

    layers = {
        "sql.parse_calls_per_query": (per_query("sql.parse"), "count"),
        "sql.parse_share": (share("sql.parse", "sql.tokenize"), "fraction"),
        "sql.analyze_calls_per_query": (per_query("sql.analyze"), "count"),
        "sql.analyze_share": (share("sql.analyze"), "fraction"),
        "planner.build_plan_calls_per_query": (per_query("planner.build_plan"), "count"),
        "planner.build_plan_share": (share("planner.build_plan"), "fraction"),
        "client.preflight_share": (share("client.preflight"), "fraction"),
        "client.history_share": (share("client.history"), "fraction"),
        "gateway.submit_share": (share("gateway.submit"), "fraction"),
        "gateway.admission_calls_per_query": (per_query("gateway.admission"), "count"),
        "gateway.admission_share": (share("gateway.admission"), "fraction"),
        "gateway.sim_queue_wait_p95_s": (0.0, "sim_s"),
        "gateway.jain_fairness": (0.0, "fraction"),
        "gateway.rejected": (0, "count"),
        "master.submit_share": (share("master.submit"), "fraction"),
        "master.tasks_per_query": (sum(j.tasks_total for j in jobs) / queries, "count"),
        "master.backups_per_query": (sum(j.backups_launched for j in jobs) / queries, "count"),
        "scheduler.place_calls_per_query": (per_query("scheduler.place"), "count"),
        "scheduler.place_share": (share("scheduler.place"), "fraction"),
        "ledger.record_share": (
            share("ledger.record_submitted", "ledger.record_finished", "ledger.checkpoint"),
            "fraction",
        ),
        "ledger.checkpoints_per_pass": (rec.calls("ledger.checkpoint") / len(traced), "count"),
        "sim.events_per_query": (per_query("sim.step"), "count"),
        "sim.dispatch_share": (share("sim.step", "sim.run_until_complete"), "fraction"),
        "sim.transfer_calls_per_query": (per_query("sim.transfer"), "count"),
        "sim.transfer_share": (share("sim.transfer"), "fraction"),
        "node.run_task_calls_per_query": (per_query("node.run_task"), "count"),
        "node.run_task_share": (share("node.run_task"), "fraction"),
        "node.charge_io_share": (share("node.charge_io"), "fraction"),
        "storage.read_calls_per_query": (per_query("storage.read"), "count"),
        "storage.read_share": (share("storage.read"), "fraction"),
        "storage.write_share": (share("storage.write"), "fraction"),
        "storage.modeled_io_bytes_per_query": (
            sum(j.io_bytes_modeled for j in jobs) / queries, "B"),
        "columnar.from_bytes_calls_per_query": (per_query("columnar.from_bytes"), "count"),
        "columnar.from_bytes_share": (share("columnar.from_bytes"), "fraction"),
        "columnar.decode_calls_per_query": (per_query("columnar.decode"), "count"),
        "columnar.decode_share": (share("columnar.decode"), "fraction"),
        "columnar.decoded_bytes_per_query": (rec.decoded_bytes / queries, "B"),
        "columnar.redecode_ratio": (
            rec.calls("columnar.from_bytes") / max(1, rec.distinct_blocks), "ratio"),
        "columnar.encode_share": (
            share("columnar.from_arrays", "columnar.to_bytes"), "fraction"),
        "index.cover_calls_per_query": (per_query("index.cover"), "count"),
        "index.cover_share": (share("index.cover"), "fraction"),
        "index.hit_ratio": (
            index_delta("hits", "complement_hits", "subsumption_hits") / probes if probes else 0.0,
            "fraction",
        ),
        "index.creations_per_query": (index_delta("creations") / queries, "count"),
        "index.evictions": (
            index_delta("evictions_lru", "evictions_ttl", "evictions_cost"), "count"),
        "engine.scan_task_share": (share("engine.scan_task"), "fraction"),
        "engine.join_share": (share("engine.hash_join"), "fraction"),
        "engine.aggregate_share": (share("engine.partial_aggregate"), "fraction"),
        "engine.serialize_share": (share("engine.serialize", "engine.deserialize"), "fraction"),
        "engine.finalize_share": (share("engine.finalize"), "fraction"),
        "engine.rows_scanned_per_query": (rec.rows_scanned / queries, "count"),
        "engine.rows_scanned_per_result_row": (
            rec.rows_scanned / len(traced) / max(1, result_rows), "ratio"),
        "ingest.flatten_share": (share("ingest.flatten"), "fraction"),
        "ingest.rows_per_ref_s": (
            ingested_rows / ingest_ref_s if ingest_ref_s else 0.0, "1/ref_s"),
        "run.drift_ratio": (
            statistics.median(costs[-quarter:]) / statistics.median(costs[:quarter]), "ratio"),
        "run.tick_share": (
            sum(r.meter.tick_s for r in timed)
            / sum(r.meter.tick_s + r.meter.op_s for r in timed),
            "fraction",
        ),
        "trace.overhead_ratio": (traced_cost / untraced_cost, "ratio"),
        "other.share": (share("harness.op"), "fraction"),
    }
    if "last_gateway_pass" in ctx:
        from repro.gateway.driver import windowed_fairness

        handles, start_s, end_s = ctx["last_gateway_pass"]
        layers["gateway.sim_queue_wait_p95_s"] = (
            nearest_rank([h.queue_wait_s for h in handles], 0.95), "sim_s")
        layers["gateway.jain_fairness"] = (
            windowed_fairness(cluster.gateway, handles, start_s, end_s)[0], "fraction")
        layers["gateway.rejected"] = (
            sum(1 for r in traced for o in r.outcomes if o.stats is None), "count")
    return layers
