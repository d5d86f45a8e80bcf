"""Smoke test of the end-to-end benchmark.

Run with ``pytest benchmarks/e2e -q`` (it is outside ``testpaths``, so
tier 1 never collects it).  ``--smoke`` sizes are a tenth of the rows and
two passes, so the whole suite is seconds, not minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
REPEATABLE = ("sim_latency_p50_s", "sim_latency_p95_s", "py_calls_per_query")


def _smoke(*extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke", "--seed", "7", *extra],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])


def test_smoke_suite_emits_exactly_the_contract_and_repeats():
    started = time.perf_counter()
    first = _smoke()
    assert time.perf_counter() - started < 20.0
    second = _smoke()

    listed = {m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    for workload in WORKLOADS:
        emitted = {k.split("/", 1)[1] for k in first["metrics"] if k.startswith(workload + "/")}
        assert emitted == listed, (workload, emitted ^ listed)
    units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    for key, metric in first["metrics"].items():
        assert metric["unit"] == units[key.split("/", 1)[1]], key

    assert first["correct"] and first["failed"] == 0 and first["attempted"] > 0
    assert second["correct"] and second["failed"] == 0
    for workload in WORKLOADS:
        for name in REPEATABLE:
            key = f"{workload}/{name}"
            assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_driver_form_splits_the_metrics_by_trace_flag():
    e2e = _smoke("--workload", "join_groupby", "--seconds", "1", "--trace", "0")
    layers = _smoke("--workload", "join_groupby", "--seconds", "1", "--trace", "1")
    assert set(e2e) == set(layers) == {"correct", "attempted", "failed", "metrics"}
    assert set(e2e["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert set(layers["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    assert all(m["value"] > 0 for m in e2e["metrics"].values())


def test_tracing_leaves_no_wrapper_installed():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import harness
        import spans

        report = harness.run_workload(
            "ingest_query", 7, smoke=True, want_e2e=False, want_layers=True
        )
        assert report["failed"] == 0
        assert report["layers"]["other.share"][0] <= 0.15
        assert spans.installed_wrappers() == []
        # ... and the probe does see wrappers while they are installed.
        recorder = spans.Recorder()
        recorder.install()
        try:
            assert len(spans.installed_wrappers()) == len(spans.CLASS_TARGETS) + len(
                spans.FUNCTION_TARGETS
            )
        finally:
            recorder.uninstall()
        assert spans.installed_wrappers() == []
    finally:
        sys.path.remove(HERE)
        sys.path.remove(os.path.join(ROOT, "src"))
