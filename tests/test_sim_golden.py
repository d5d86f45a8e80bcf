"""Golden simulated statistics: the cheap detector for a moved cost model.

A fixed script runs on three topologies and every number the simulated
clock produces — job response times, per-attempt task timelines, bytes
carried per link, heartbeats received, the final clock — is compared, as
``repr(float)``, with ``tests/golden/sim_*.json``.  A change meant only
to make the simulator *faster* must leave these files untouched; they
may be regenerated (``python tests/test_sim_golden.py --regenerate``)
only by a PR that says it moves the model (docs/TESTING.md).
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.cluster.jobs import JobOptions
from repro.faults.plan import FaultPlan, MessageDelay, MessageDrop
from repro.sim.netmodel import TrafficClass

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: name -> (datacenters, racks per datacenter, nodes per rack)
TOPOLOGIES = {
    "1x1": (1, 1, 1),
    "2x4": (1, 2, 4),
    "2dc_2x2": (2, 2, 2),
}

ROWS, BLOCK_ROWS = 2048, 128


def _build(datacenters: int, racks: int, nodes: int) -> FeisuCluster:
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=datacenters,
            racks_per_datacenter=racks,
            nodes_per_rack=nodes,
            # Modeled bytes large enough that a degraded node is overdue
            # for a backup, small enough that real work stays tiny.
            default_scale_factor=2000.0,
        )
    )
    rng = np.random.default_rng(23)
    cluster.load_table(
        "T",
        Schema.of(a=DataType.INT64, b=DataType.INT64, k=DataType.INT64, x=DataType.FLOAT64),
        {
            "a": rng.integers(0, 1000, ROWS),
            "b": rng.integers(0, 1000, ROWS),
            "k": rng.integers(0, 8, ROWS),
            "x": rng.random(ROWS),
        },
        storage="storage-a",
        block_rows=BLOCK_ROWS,
    )
    cluster.load_table(
        "D",
        Schema.of(k=DataType.INT64, name=DataType.STRING),
        {"k": np.arange(8), "name": np.array([f"grp{i}" for i in range(8)], dtype=object)},
        storage="storage-b",
        block_rows=4,
    )
    return cluster


def _job_record(label: str, job) -> dict:
    return {
        "label": label,
        "status": job.status.value,
        "response_time_s": repr(float(job.stats.response_time_s)),
        "backups_launched": job.stats.backups_launched,
        "tasks_reused": job.stats.tasks_reused,
        "results_spilled": job.stats.results_spilled,
        "task_timeline": [
            {
                # Plan ids come from a process-wide counter; the task's
                # index inside its plan is what is stable.
                "task_id": t.task_id.split("/", 1)[1],
                "worker_id": t.worker_id,
                "started_at": repr(float(t.started_at)),
                "finished_at": repr(float(t.finished_at)),
                "backup": t.backup,
            }
            for t in job.task_timeline
        ],
    }


def _busiest_holder(cluster: FeisuCluster):
    counts: dict = {}
    for ref in cluster.catalog.get("T").blocks:
        system, inner = cluster.router.resolve(ref.path)
        for addr in system.locations(inner):
            counts[addr] = counts.get(addr, 0) + 1
    return max(sorted(counts, key=str), key=lambda addr: counts[addr])


def run_script(topology: str) -> dict:
    cluster = _build(*TOPOLOGIES[topology])
    jobs = []

    def run(label: str, sql: str, options: JobOptions = None) -> None:
        jobs.append(_job_record(label, cluster.query_job(sql, options=options)))

    drill = "SELECT COUNT(*), SUM(b) FROM T WHERE a < 500"
    run("cold_scan", drill)
    run("index_covered", drill)
    run("index_covered_again", drill)
    run("cold_scan_two_clauses", "SELECT k, AVG(x) FROM T WHERE a >= 250 AND b < 700 GROUP BY k")
    run("covered_drill_down", "SELECT COUNT(*) FROM T WHERE a < 500 AND b < 700")
    run(
        "broadcast_join",
        "SELECT D.name, COUNT(*), SUM(T.b) FROM T JOIN D ON T.k = D.k "
        "WHERE T.a < 800 GROUP BY D.name",
    )
    run("spilled_result", "SELECT a, b FROM T WHERE a < 300", JobOptions(spill_threshold_bytes=1.0))

    # Two jobs submitted at the same instant share identical tasks.
    shared_sql = "SELECT SUM(x) FROM T WHERE b >= 100"
    first, first_done = cluster.submit(shared_sql)
    second, second_done = cluster.submit(shared_sql)
    cluster.sim.run_until_complete(first_done)
    cluster.sim.run_until_complete(second_done)
    jobs.append(_job_record("shared_first", first))
    jobs.append(_job_record("shared_second", second))

    # Three jobs at one instant through a two-job master: the second has
    # no tasks (a contradiction), ends the instant it starts and thereby
    # emits the third, whose placements read leaf load while the first
    # job's dispatches are still in flight.
    cluster.master.max_concurrent_jobs = 2
    trio = [
        cluster.submit("SELECT k, MIN(x) FROM T WHERE b >= 300 GROUP BY k"),
        cluster.submit("SELECT COUNT(*) FROM T WHERE a < 5 AND a > 10"),
        cluster.submit("SELECT k, MAX(x) FROM T WHERE b < 650 GROUP BY k"),
    ]
    for label, (job, done) in zip(("instant_first", "instant_empty", "instant_third"), trio):
        cluster.sim.run_until_complete(done)
        jobs.append(_job_record(label, job))
    cluster.master.max_concurrent_jobs = 64

    # A straggler: the busiest replica holder degrades, backups rescue it.
    slow = cluster.leaf_at(_busiest_holder(cluster))
    slow.slow_down(400.0)
    run("straggler_backup", "SELECT MAX(x) FROM T WHERE a >= 10")
    slow.restore_speed(400.0)

    # A seeded drop + delay plan; installed last, it stays on.
    cluster.install_faults(
        FaultPlan(rpc_timeout_s=0.5).add(
            MessageDrop(probability=0.15, cls=TrafficClass.CONTROL),
            MessageDelay(extra_s=0.02, probability=0.4),
        ),
        seed=41,
    )
    run("faulty_cold", "SELECT COUNT(*) FROM T WHERE b < 400")
    run("faulty_covered", drill)
    run(
        "faulty_join",
        "SELECT D.name, COUNT(*) FROM T JOIN D ON T.k = D.k WHERE T.b < 400 GROUP BY D.name",
    )
    # Let trailing stragglers, watchdog timers and a few heartbeat rounds drain.
    cluster.sim.run(until=cluster.sim.now + 10.0)

    injector = cluster.fault_injector
    return {
        "topology": topology,
        "jobs": jobs,
        "links": {
            link.name: {
                "bytes_carried": link.bytes_carried,
                "busy_time": repr(float(link.busy_time)),
            }
            for link in cluster.net.links()
        },
        "heartbeats_received": cluster.cluster_manager.heartbeats_received,
        "faults": {
            "dropped": injector.dropped,
            "delayed": injector.delayed,
        },
        "final_now": repr(float(cluster.sim.now)),
    }


def _golden_path(topology: str) -> str:
    return os.path.join(GOLDEN_DIR, f"sim_{topology}.json")


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_simulated_statistics_match_golden(topology):
    with open(_golden_path(topology)) as fh:
        golden = json.load(fh)
    actual = run_script(topology)
    # Compare piecewise first so a failure names the job that moved.
    for want, got in zip(golden["jobs"], actual["jobs"]):
        assert got == want, f"{topology}: job {want['label']!r} moved"
    assert actual == golden


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_golden_script_exercises_what_it_claims(topology):
    """The recorded files really contain the cases the script is for."""
    with open(_golden_path(topology)) as fh:
        golden = json.load(fh)
    by_label = {j["label"]: j for j in golden["jobs"]}
    # Under the fault plan a job may also exhaust a task's attempts.
    assert all(
        j["status"] == "succeeded" for j in golden["jobs"] if not j["label"].startswith("faulty_")
    )
    assert by_label["spilled_result"]["results_spilled"] > 0
    assert by_label["shared_second"]["tasks_reused"] > 0
    assert by_label["instant_empty"]["task_timeline"] == []
    assert by_label["instant_empty"]["response_time_s"] == "0.0"
    first_start = by_label["instant_first"]["task_timeline"][0]["started_at"]
    assert all(t["started_at"] == first_start for t in by_label["instant_third"]["task_timeline"])
    assert golden["heartbeats_received"] > 0
    if topology != "1x1":  # one node: no second leaf for a backup, no fabric to fault
        assert golden["faults"]["dropped"] > 0 and golden["faults"]["delayed"] > 0
        assert by_label["straggler_backup"]["backups_launched"] > 0
        assert any(t["backup"] for t in by_label["straggler_backup"]["task_timeline"])
        assert any(v["bytes_carried"] for v in golden["links"].values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_sim_golden.py --regenerate  (see docs/TESTING.md)")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(TOPOLOGIES):
        with open(_golden_path(name), "w") as fh:
            json.dump(run_script(name), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", _golden_path(name))
