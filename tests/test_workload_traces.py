"""Pinned generated traces.

The figure benchmarks (Fig 4, 5, 8, §VII), the gateway bench and the
end-to-end ``gateway_mt`` workload all run streams drawn by
``repro.workload.generator``.  These digests pin those streams, text and
timing, so a refactor of the generator that reorders a single random
draw shows here rather than as a moved figure.
"""

import hashlib

import pytest

from repro.columnar.schema import DataType, Schema
from repro.workload.datasets import log_schema
from repro.workload.generator import (
    MultiTenantConfig,
    WorkloadConfig,
    WorkloadGenerator,
    multi_tenant_sessions,
)

_DAY = 86_400.0
_GATEWAY_SCHEMA = Schema.of(
    c1=DataType.INT64, c2=DataType.INT64, c3=DataType.INT64, clicks=DataType.FLOAT64
)


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _generated(num_fields, config, value_ranges, contains_values, duration_s):
    gen = WorkloadGenerator(
        "T1", log_schema(num_fields), config,
        value_ranges=value_ranges, contains_values=contains_values,
    )
    trace = gen.generate(duration_s)
    return len(trace), _digest((q.at_s, q.user, q.sql) for q in trace)


def _sessions(config, value_ranges):
    traces = multi_tenant_sessions("T", _GATEWAY_SCHEMA, config, value_ranges=value_ranges)
    rows = [
        (t.tenant, t.user, t.opens_at_s, tuple((q.at_s, q.user, q.sql) for q in t.queries))
        for t in traces
    ]
    return sum(len(t.queries) for t in traces), _digest(rows)


_FIG4_5 = dict(
    value_ranges={"click_count": (0, 50), "position": (1, 10), "user_id": (0, 5000)},
    contains_values={"url": [f"site{i}" for i in range(6)], "query_text": ["music", "news"]},
)

GENERATED = {
    "fig4": (
        lambda: _generated(
            16, WorkloadConfig(num_users=14, think_time_s=600.0, seed=41), duration_s=_DAY,
            **_FIG4_5,
        ),
        (1498, "c6ffe9646f4ae698"),
    ),
    "fig5": (
        lambda: _generated(
            16, WorkloadConfig(num_users=14, think_time_s=600.0, reuse_probability=0.8, seed=42),
            duration_s=_DAY, **_FIG4_5,
        ),
        (1450, "c3112c59c1767694"),
    ),
    "fig5_drill": (
        lambda: _generated(
            16, WorkloadConfig(num_users=14, think_time_s=600.0, reuse_probability=0.85, seed=5),
            duration_s=_DAY, **_FIG4_5,
        ),
        (1542, "f8099667f0abece7"),
    ),
    "fig5_random": (
        lambda: _generated(
            16, WorkloadConfig(num_users=14, think_time_s=600.0, reuse_probability=0.02, seed=5),
            duration_s=_DAY, **_FIG4_5,
        ),
        (1471, "f679077f62a7d927"),
    ),
    "fig8": (
        lambda: _generated(
            16, WorkloadConfig(num_users=20, think_time_s=900.0, seed=8),
            value_ranges={"click_count": (0, 50), "position": (1, 10)},
            contains_values={"url": [f"site{i}" for i in range(6)]},
            duration_s=2 * _DAY,
        ),
        (2848, "0edfb1d0322dfd29"),
    ),
    "sec7": (
        lambda: _generated(
            12, WorkloadConfig(num_users=15, think_time_s=500.0, seed=77, aggregate_fraction=0.8),
            value_ranges={"click_count": (0, 50), "position": (1, 10), "user_id": (0, 5000)},
            contains_values={"url": [f"site{i}" for i in range(5)]},
            duration_s=6 * 3600.0,
        ),
        (471, "ebb8b56198f9e8cd"),
    ),
}

_GATEWAY_RANGES = {"c1": (0, 100), "c2": (0, 10), "c3": (0, 1000)}

SESSIONS = {
    # benchmarks/e2e gateway_mt's script (SCRIPT_SEED 52, 160 sessions).
    "gateway_mt": (
        lambda: _sessions(
            MultiTenantConfig(
                num_tenants=8, num_sessions=160, zipf_exponent=1.1, queries_per_session=2.0,
                think_time_s=0.05, open_window_s=0.1, seed=52,
            ),
            dict(_GATEWAY_RANGES, clicks=(0, 100)),
        ),
        (346, "3626a28e86376416"),
    ),
    # benchmarks/gateway_bench.py: the idle floor and the saturated run.
    "gateway_bench_idle": (
        lambda: _sessions(
            MultiTenantConfig(
                num_tenants=8, num_sessions=50, think_time_s=1.0, open_window_s=5.0, seed=42,
            ),
            _GATEWAY_RANGES,
        ),
        (100, "33565be7f71bba0e"),
    ),
    "gateway_bench_saturated": (
        lambda: _sessions(
            MultiTenantConfig(
                num_tenants=8, num_sessions=1000, zipf_exponent=1.1, queries_per_session=2.0,
                think_time_s=0.5, open_window_s=2.0, seed=42,
            ),
            _GATEWAY_RANGES,
        ),
        (2102, "20370099c9245ccd"),
    ),
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_trace_is_pinned(name):
    build, expected = GENERATED[name]
    assert build() == expected


@pytest.mark.parametrize("name", sorted(SESSIONS))
def test_multi_tenant_script_is_pinned(name):
    build, expected = SESSIONS[name]
    assert build() == expected
