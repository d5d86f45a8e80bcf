"""Golden span trees: the detector for a moved S47 trace.

A fixed script runs traced jobs through the phases and clamps the span
tree records — index probes cold and warm, a broadcast join, a spilled
result, a crashed leaf next to a backup, a timeout, a cancel and dropped
messages — and compares ``json.dumps(job.trace.export(),
sort_keys=True)`` of each with ``tests/golden/trace_export.json``.  Plan
and job ids come from process-wide counters, so they are normalised.
A change to who writes the tree, or how, must leave the file untouched;
regenerate it (``python tests/test_trace_golden.py --regenerate``) only
in a change that says it alters the trace.
"""

from __future__ import annotations

import json
import os
import re
import sys

import numpy as np

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.cluster.jobs import JobOptions
from repro.faults.plan import FaultPlan, MessageDrop
from repro.sim.netmodel import NodeAddress, TrafficClass

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "trace_export.json")

CLICKS = Schema.of(
    c1=DataType.INT64, c2=DataType.INT64, url=DataType.STRING, clicks=DataType.FLOAT64
)
JOIN_SQL = (
    "SELECT label, COUNT(*) n, SUM(clicks) s FROM T JOIN D ON T.c2 = D.c2 "
    "WHERE c1 < 60 GROUP BY label"
)
_IDS = re.compile(r"\b(plan|job)-\d+")


def _clicks(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "c1": rng.integers(0, 100, n),
        "c2": rng.integers(0, 10, n),
        "url": np.array([f"http://site{i % 7}.example.com/p{i % 13}" for i in range(n)], dtype=object),
        "clicks": rng.random(n),
    }


def _cluster(storage: str = "storage-a", **config) -> FeisuCluster:
    cluster = FeisuCluster(
        FeisuConfig(datacenters=1, racks_per_datacenter=2, nodes_per_rack=4, **config)
    )
    cluster.load_table("T", CLICKS, _clicks(3000, 11), storage=storage, block_rows=375)
    cluster.load_table(
        "D",
        Schema.of(c2=DataType.INT64, label=DataType.STRING),
        {"c2": np.arange(10), "label": np.array([f"grp{i}" for i in range(10)], dtype=object)},
        storage="storage-b",
        block_rows=5,
    )
    return cluster


def _export(job) -> str:
    return _IDS.sub(r"\1-N", json.dumps(job.trace.export(), sort_keys=True))


def run_script() -> dict:
    traced = JobOptions(trace=True)
    out: dict = {}

    def run(cluster, label: str, sql: str, options: JobOptions = traced):
        job = cluster.query_job(sql, options=options)
        out[label] = _export(job)
        return job

    # Plain SmartIndex, cold then warm; a join; a spilled result.
    plain = _cluster()
    drill = "SELECT COUNT(*), SUM(clicks) FROM T WHERE c1 < 50 AND c2 >= 2"
    run(plain, "index_cold", drill)
    run(plain, "index_warm", drill)
    run(plain, "broadcast_join", JOIN_SQL)
    run(plain, "spilled_result", "SELECT c1, url FROM T WHERE c1 < 20",
        JobOptions(trace=True, spill_threshold_bytes=1.0))

    # A timeout that clamps attempts mid-phase, then the stragglers'
    # late writes into the clamped tree; a cancel likewise.
    timed = run(plain, "timeout", "SELECT c2, MAX(clicks) FROM T WHERE c1 >= 70 GROUP BY c2",
                JobOptions(trace=True, max_time_s=0.02))
    cancelled, _ = plain.submit("SELECT SUM(clicks) FROM T WHERE c1 >= 40", options=traced)
    plain.sim.run(until=plain.sim.now + 0.015)
    plain.master.cancel(cancelled.job_id)
    out["cancel"] = _export(cancelled)
    plain.sim.run(until=plain.sim.now + 10.0)
    out["timeout_drained"] = _export(timed)
    out["cancel_drained"] = _export(cancelled)

    # A straggler gets backups while another leaf crashes mid-scan.
    crash = _cluster()
    crash.leaf_at(NodeAddress(0, 0, 2)).slow_down(50.0)
    job, done = crash.submit("SELECT COUNT(*) FROM T WHERE c2 < 4", options=traced)
    crash.sim.run(until=crash.sim.now + 0.005)
    crash.leaf_at(NodeAddress(0, 0, 3)).crash()
    crash.sim.run_until_complete(done)
    out["crash_and_backup"] = _export(job)
    crash.sim.run(until=crash.sim.now + 10.0)
    out["crash_and_backup_drained"] = _export(job)

    # Dropped messages fail attempts mid-dispatch, mid-read and mid-return.
    plain.install_faults(
        FaultPlan(rpc_timeout_s=0.05).add(
            MessageDrop(probability=0.3, cls=TrafficClass.CONTROL),
            MessageDrop(probability=0.3, cls=TrafficClass.READ),
        ),
        seed=5,
    )
    run(plain, "faulty_scan", "SELECT COUNT(*) FROM T WHERE c1 < 35")
    run(plain, "faulty_join", JOIN_SQL.replace("c1 < 60", "c1 < 45"))
    return out


def _load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_trace_exports_match_golden():
    golden = _load()
    actual = run_script()
    assert sorted(actual) == sorted(golden)
    for label in golden:  # name the first job whose tree moved
        assert actual[label] == golden[label], f"trace of {label!r} moved"


def test_golden_script_exercises_what_it_claims():
    trees = {label: json.loads(text)["root"] for label, text in _load().items()}

    def spans(node):
        yield node
        for child in node.get("children", ()):
            yield from spans(child)

    def names(label):
        return [s["name"] for s in spans(trees[label])]

    def tags(label, name):
        return [s.get("tags", {}) for s in spans(trees[label]) if s["name"] == name]

    assert not any(t.get("atom_hits") for t in tags("index_cold", "index_probe"))
    assert any(t.get("full_cover") for t in tags("index_warm", "index_probe"))
    assert {"fetch_broadcasts", "read_table.D", "broadcast_ship"} <= set(names("broadcast_join"))
    assert any(t.get("spilled") for t in tags("spilled_result", "result_return"))
    assert trees["timeout"]["tags"]["status"] == "timed_out"
    assert trees["crash_and_backup"]["tags"]["status"] == "succeeded"
    attempts = [s for s in spans(trees["crash_and_backup"]) if s["name"].startswith("task.attempt")]
    assert any(s["tags"].get("backup") for s in attempts)
    assert any("error" in s["tags"] for s in attempts)
    faulty = [
        s for label in ("faulty_scan", "faulty_join") for s in spans(trees[label])
        if s["name"].startswith("task.attempt") and "error" in s["tags"]
    ]
    assert faulty


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_trace_golden.py --regenerate")
    with open(GOLDEN, "w") as fh:
        json.dump(run_script(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", GOLDEN)
