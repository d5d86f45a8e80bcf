"""Gateway serving-bench gate (S52).

Opt-in gate: ``pytest -m gatewaybench benchmarks``.  Replays 1000
Zipf-skewed sessions against a 4-slot gateway and asserts (a) the S52
acceptance bar — every session completes, p99 simulated service latency
within 3x the idle p50, windowed Jain fairness >= 0.9 — and (b) no
latency/fairness drift past the committed ``BENCH_gateway.json``
baseline.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

import gateway_bench as _gb  # noqa: E402

BASELINE = os.path.join(os.path.dirname(__file__), "BENCH_gateway.json")


@pytest.fixture(scope="module")
def gateway_results():
    return _gb.run_suite()


@pytest.mark.gatewaybench
def test_gateway_acceptance(gateway_results):
    assert _gb.acceptance_failures(gateway_results) == []


@pytest.mark.gatewaybench
def test_gateway_baseline_regression(gateway_results):
    assert os.path.exists(BASELINE), (
        "no committed baseline; run run_gateway.py --update"
    )
    with open(BASELINE) as fh:
        baseline = json.load(fh)["runs"]
    assert _gb.regressions(gateway_results, baseline) == []


@pytest.mark.gatewaybench
def test_gateway_baseline_schema():
    with open(BASELINE) as fh:
        doc = json.load(fh)
    assert doc["schema_version"] == 1
    runs = doc["runs"]
    assert set(runs) == {"idle", "saturated_1000_sessions"}
    sat = runs["saturated_1000_sessions"]
    assert sat["sessions"] == _gb.NUM_SESSIONS
    assert sat["jain_fairness"] >= _gb.MIN_JAIN
    assert sat["p99_over_idle_p50"] <= _gb.MAX_P99_OVER_IDLE_P50
