"""Ablations over Feisu's design choices (DESIGN.md §3).

These go beyond the paper's own plots to quantify the individual design
decisions §IV/§V call out: the 72 h index TTL, index compression, the
locality-first scheduler, identical-task reuse in the job manager, and
the SSD cache's manual-preference admission (the paper's 80 %-miss
observation).
"""

import pytest

from benchmarks._harness import eval_cluster, load_t1, run_stream
from benchmarks.conftest import format_series
from repro import FeisuCluster, FeisuConfig, LeafConfig
from repro.workload.generator import scan_query_stream


def _queries(count=120, seed=91, reuse=0.8):
    return scan_query_stream(
        "T1",
        ["click_count", "position", "user_id"],
        value_range=(0, 40),
        count=count,
        seed=seed,
        pool_size=20,
        reuse_probability=reuse,
    )


@pytest.mark.benchmark(group="ablations")
def test_ablation_index_ttl(benchmark, figure_report):
    """§IV-C-2 sets TTL = 72 h 'based on our experiences'.  A too-short
    TTL forfeits hits; an unbounded one only costs memory."""

    def run(ttl_s):
        cluster = eval_cluster(LeafConfig(enable_smartindex=True, index_ttl_s=ttl_s))
        load_t1(cluster)
        # Space queries 30 simulated seconds apart so TTLs in that range bite.
        run_stream(cluster, _queries(count=90), inter_query_gap_s=30.0)
        stats = cluster.aggregate_index_stats()
        hit = (stats.hits + stats.complement_hits) / max(stats.lookups, 1)
        return hit, stats.evictions_ttl

    def sweep():
        return [(ttl, *run(ttl)) for ttl in (10.0, 300.0, 72 * 3600.0)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    figure_report(
        "Ablation: SmartIndex TTL",
        format_series(
            ["TTL (s)", "hit rate", "TTL evictions"],
            [(f"{ttl:g}", f"{hit:.1%}", ev) for ttl, hit, ev in rows],
        ),
    )
    hits = [h for _t, h, _e in rows]
    assert hits[0] < hits[-1]  # starving TTL loses hits
    assert rows[0][2] > rows[-1][2]  # and shows up as TTL evictions


@pytest.mark.benchmark(group="ablations")
def test_ablation_index_compression(benchmark, figure_report):
    """'Feisu can compress the index to improve memory efficiency.'"""

    def run(compress):
        cluster = eval_cluster(LeafConfig(enable_smartindex=True, index_compress=compress))
        load_t1(cluster)
        results = run_stream(cluster, _queries())
        return cluster.index_memory_used(), results[-1]["response_time_s"]

    def both():
        return run(True), run(False)

    (mem_c, _), (mem_u, _) = benchmark.pedantic(both, rounds=1, iterations=1)
    figure_report(
        "Ablation: SmartIndex vector compression",
        format_series(
            ["configuration", "index memory (KB)"],
            [("RLE compression", mem_c / 1024), ("uncompressed", mem_u / 1024)],
        ),
    )
    assert mem_c < mem_u  # selective predicates compress well


@pytest.mark.benchmark(group="ablations")
def test_ablation_locality_scheduling(benchmark, figure_report):
    """§III-B: 'Feisu always schedules a task to the leaf server that
    contains the data if the server [is] available.'  Random placement
    pays network transfer on nearly every block."""

    def run(locality):
        cluster = eval_cluster(LeafConfig(enable_smartindex=False), locality_aware=locality)
        load_t1(cluster)
        stats = run_stream(cluster, _queries(count=40, reuse=0.0))
        mean = sum(s["response_time_s"] for s in stats) / len(stats)
        return mean, cluster.scheduler.placements_local, cluster.scheduler.placements_remote

    def both():
        return run(True), run(False)

    (t_loc, loc_l, loc_r), (t_rand, rand_l, rand_r) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    figure_report(
        "Ablation: locality-aware vs. random scheduling",
        format_series(
            ["policy", "mean response (s)", "local placements", "remote placements"],
            [
                ("locality-aware", t_loc, loc_l, loc_r),
                ("round-robin", t_rand, rand_l, rand_r),
            ],
        ),
    )
    assert loc_r == 0  # with replicas on 3 nodes, local placement always exists
    assert rand_r > 0
    assert t_loc < t_rand


@pytest.mark.benchmark(group="ablations")
def test_ablation_identical_task_reuse(benchmark, figure_report):
    """§III-C: the job manager 'tries to reuse other running job's task
    result if tasks are identical'.  N concurrent identical reports cost
    one execution, not N."""

    def run():
        cluster = eval_cluster(LeafConfig(enable_smartindex=False))
        load_t1(cluster)
        sql = "SELECT COUNT(*) FROM T1 WHERE click_count > 3"
        jobs = [cluster.submit(sql) for _ in range(5)]
        for _job, done in jobs:
            cluster.sim.run_until_complete(done)
        executed = sum(leaf.tasks_completed for leaf in cluster.leaves)
        reused = sum(job.stats.tasks_reused for job, _ in jobs)
        total = sum(job.stats.tasks_total for job, _ in jobs)
        assert all(job.result is not None for job, _ in jobs)
        return executed, reused, total

    executed, reused, total = benchmark.pedantic(run, rounds=1, iterations=1)
    figure_report(
        "Ablation: identical-task reuse across concurrent jobs",
        format_series(
            ["metric", "count"],
            [
                ("tasks across 5 identical jobs", total),
                ("tasks actually executed", executed),
                ("tasks served by reuse", reused),
            ],
        ),
    )
    assert executed <= total / 5 + 2  # one physical execution (± backups)
    assert reused == total - total // 5


@pytest.mark.benchmark(group="ablations")
def test_ablation_ssd_admission(benchmark, figure_report):
    """§IV-B: naive LRU admission thrashes under ad-hoc queries ('more
    than 80% ... cache miss rates'); manual preferences fix it for the
    business-critical subset."""

    def run(admit_all: bool, prefer_hot: bool):
        cluster = eval_cluster(
            LeafConfig(
                enable_smartindex=False,
                enable_ssd_cache=True,
                ssd_cache_bytes=96 * 1024,  # scaled-down SSD: ~ a few blocks
                ssd_admit_preferred_only=not admit_all,
            )
        )
        load_t1(cluster, rows=24_000, block_rows=1024)
        if prefer_hot:
            hot_prefix = "/hdfs/tables/T1/T1.b0"
            for leaf in cluster.leaves:
                leaf.ssd_cache.prefer(hot_prefix)
        run_stream(cluster, _queries(count=60, reuse=0.3, seed=13))
        hits = sum(lf.ssd_cache.hits for lf in cluster.leaves)
        misses = sum(lf.ssd_cache.misses for lf in cluster.leaves)
        return misses / max(hits + misses, 1)

    def both():
        return run(admit_all=True, prefer_hot=False), run(admit_all=False, prefer_hot=True)

    naive_miss, preferred_miss = benchmark.pedantic(both, rounds=1, iterations=1)
    figure_report(
        "Ablation: SSD cache admission (the 80%-miss observation)",
        format_series(
            ["policy", "miss ratio"],
            [
                ("LRU, admit everything", f"{naive_miss:.1%}"),
                ("manual preferences only", f"{preferred_miss:.1%}"),
            ],
        ),
    )
    # The paper's observation: ad-hoc workloads thrash a naive SSD cache.
    assert naive_miss > 0.6


@pytest.mark.benchmark(group="ablations")
def test_ablation_reuse_window(benchmark, figure_report):
    """Extending task-result reuse from running jobs (the paper's
    behaviour) to recently *finished* ones: sequential repeats of the
    same report then cost nothing at all."""

    def run(window_s):
        cluster = FeisuCluster(
            FeisuConfig(
                datacenters=1,
                racks_per_datacenter=2,
                nodes_per_rack=8,
                leaf=LeafConfig(enable_smartindex=False),
                reuse_completed_window_s=window_s,
            )
        )
        load_t1(cluster)
        sql = "SELECT COUNT(*) FROM T1 WHERE click_count > 3"
        for _ in range(4):
            cluster.query(sql)
        executed = sum(leaf.tasks_completed for leaf in cluster.leaves)
        reused = cluster.master.job_manager.reuse_hits_completed
        return executed, reused

    def both():
        return run(0.0), run(3600.0)

    (exec_off, reuse_off), (exec_on, reuse_on) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    figure_report(
        "Ablation: completed-task reuse window",
        format_series(
            ["configuration", "tasks executed", "completed-task reuse hits"],
            [
                ("running-jobs only (paper)", exec_off, reuse_off),
                ("1h completed window", exec_on, reuse_on),
            ],
        ),
    )
    assert reuse_off == 0
    assert reuse_on > 0
    assert exec_on < exec_off


def _degrade_busiest_holder(cluster, table, factor: float):
    """Slow down the leaf holding the most block replicas, so the
    locality scheduler is guaranteed to route work onto the straggler."""
    from collections import Counter

    holders = Counter()
    for ref in table.blocks:
        system, inner = cluster.router.resolve(ref.path)
        for addr in system.locations(inner):
            holders[addr] += 1
    busiest = holders.most_common(1)[0][0]
    leaf = cluster.leaf_at(busiest)
    leaf.slow_down(factor)
    return leaf


@pytest.mark.benchmark(group="ablations")
def test_ablation_backup_tasks_straggler(benchmark, figure_report):
    """§III-C backup tasks: speculative copies of straggling tasks.

    One leaf is massively degraded (container interference, §V-B); with
    backups the job escapes the straggler's long tail, without them the
    job waits for it."""

    def run(enable_backup: bool):
        cluster = eval_cluster(LeafConfig(enable_smartindex=False))
        table = load_t1(cluster)
        _degrade_busiest_holder(cluster, table, 2000.0)
        from repro.cluster.jobs import JobOptions

        job = cluster.query_job(
            "SELECT SUM(click_count) FROM T1 WHERE position >= 1",
            options=JobOptions(enable_backup=enable_backup),
        )
        return job.stats.response_time_s, job.stats.backups_launched

    def both():
        return run(True), run(False)

    (t_with, backups), (t_without, _nb) = benchmark.pedantic(both, rounds=1, iterations=1)
    figure_report(
        "Ablation: backup tasks under a straggler",
        format_series(
            ["configuration", "response (s)", "backups launched"],
            [
                ("backups enabled", t_with, backups),
                ("backups disabled", t_without, 0),
            ],
        ),
    )
    assert backups > 0
    assert t_with < t_without / 1.5  # speculative execution pays off
