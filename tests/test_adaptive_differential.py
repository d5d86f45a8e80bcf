"""Differential wall for the adaptive re-optimizer (S53).

Twin clusters — one frozen (``adaptive=None``), one with the pilot-slice
re-optimizer on — run the same queries over identical data.  The frozen
rows must be stdlib sqlite3's answer over the same tables
(``tests/_oracle.py``, where a generated global aggregate names the
"empty aggregate" row of its ``DIVERGENCES``), the adaptive rows the frozen ones in
order (float aggregates up to addition-order ulps, everything else
exactly), and, on the misestimate scenarios the re-optimizer exists for,
the re-planned run must never exceed the frozen plan's modeled cost.

A Hypothesis section proves the skew-split algebra: splitting a block's
rows into arbitrary sub-partitions (including empty ones) and merging
the partial aggregates is equivalent to aggregating the block unsplit,
for SUM/COUNT/MIN/MAX and NaN group keys — the property the hot-key
splitter relies on for correctness.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.client import FeisuClient
from repro.cluster.jobs import JobOptions
from repro.cluster.node import LeafConfig
from repro.engine.aggregates import GroupedPartial, partial_aggregate
from repro.planner.adaptive import AdaptiveConfig
from repro.planner.physical import plan_fingerprint
from repro.workload.generator import skewed_join_dataset, skewed_join_queries
from tests._oracle import compare_rows, oracle_for
from tests.conftest import CLICKS_SCHEMA, make_clicks_columns
from tests.test_integration_differential import _divergence, _random_join_query, _random_query

pytestmark = pytest.mark.adaptive

FACT_SCHEMA = Schema.of(
    k=DataType.INT64, v=DataType.FLOAT64, w=DataType.INT64, note=DataType.STRING
)
DIM_SCHEMA = Schema.of(k=DataType.INT64, label=DataType.STRING)
CLICKS_DIM = {
    "c2": np.arange(10),
    "label": np.array([f"grp{i}" for i in range(10)], dtype=object),
    "weight": np.linspace(0.1, 1.0, 10),
}


# -- twin construction ----------------------------------------------------------


def _clicks_twin(adaptive) -> FeisuCluster:
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=4,
            adaptive=adaptive,
        )
    )
    columns = make_clicks_columns()
    cluster.load_table("T", CLICKS_SCHEMA, columns, storage="storage-a", block_rows=1500)
    cluster.load_table(
        "D",
        Schema.of(c2=DataType.INT64, label=DataType.STRING, weight=DataType.FLOAT64),
        CLICKS_DIM,
        storage="storage-b",
        block_rows=100,
    )
    return cluster


def _skew_twin(adaptive) -> FeisuCluster:
    """Skewed fact/dim pair where the planner's CONTAINS estimate is ~6x
    off — every query crosses the re-plan trigger.  SmartIndex is off on
    both twins: pilot slices can never use it, and leaving it on for the
    frozen twin only would compare different machines."""
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=8,
            leaf=LeafConfig(enable_smartindex=False),
            adaptive=adaptive,
        )
    )
    fact, dim = skewed_join_dataset(20000, seed=9)
    cluster.load_table(
        "T", FACT_SCHEMA, fact, storage="storage-a", block_rows=5000, scale_factor=500
    )
    cluster.load_table("D", DIM_SCHEMA, dim, storage="storage-b", block_rows=100)
    return cluster


@pytest.fixture(scope="module")
def adaptive_twins():
    """Identical clicks data, one cluster per planner mode."""
    return _clicks_twin(None), _clicks_twin(AdaptiveConfig())


@pytest.fixture(scope="module")
def clicks_oracle():
    with oracle_for({"T": make_clicks_columns(), "D": CLICKS_DIM}) as oracle:
        yield oracle


@pytest.fixture(scope="module")
def skew_twins():
    return _skew_twin(None), _skew_twin(AdaptiveConfig())


@pytest.fixture(scope="module")
def skew_oracle():
    fact, dim = skewed_join_dataset(20000, seed=9)
    with oracle_for({"T": fact, "D": dim}) as oracle:
        yield oracle


def _assert_rows_match(oracle, frozen_result, adaptive_result, sql, divergence=None):
    divergence = oracle(sql, frozen_result, divergence)
    assert divergence is None, (sql, "frozen", divergence)
    assert adaptive_result.columns == frozen_result.columns, sql
    divergence = compare_rows(adaptive_result.rows(), frozen_result.rows())
    assert divergence is None, (sql, divergence)


# -- figure-shaped + randomized queries -----------------------------------------

#: The workloads behind the committed figures plus edge shapes.  Where a
#: LIMIT appears, the ORDER BY covers every selected column so tied rows
#: are identical tuples — the cut is insensitive to arrival order.
ADAPTIVE_DIFFERENTIAL_QUERIES = [
    "SELECT COUNT(*) AS n FROM T WHERE c1 > 50",
    "SELECT COUNT(*) AS n FROM T WHERE url CONTAINS 'site3'",
    "SELECT province, COUNT(*) AS n, SUM(c1) AS s FROM T "
    "WHERE c2 < 7 GROUP BY province ORDER BY province",
    "SELECT c2 AS k, AVG(clicks) AS a FROM T WHERE c1 >= 20 GROUP BY k ORDER BY k",
    "SELECT c1 AS a, c2 AS b, url FROM T WHERE c1 < 15 AND c2 = 3 "
    "ORDER BY a, b, url LIMIT 25",
    "SELECT label AS g, COUNT(*) AS n FROM T JOIN D ON T.c2 = D.c2 "
    "WHERE c1 < 40 GROUP BY g ORDER BY g",
    "SELECT SUM(weight) AS w FROM T LEFT JOIN D ON T.c2 = D.c2 WHERE c1 > 90",
    "SELECT c2 AS k, COUNT(*) AS n FROM T GROUP BY k "
    "HAVING COUNT(*) > 100 ORDER BY k",
    "SELECT MIN(c1) AS lo, MAX(c1) AS hi, SUM(c2) AS s FROM T",
    "SELECT COUNT(*) AS n FROM T WHERE c1 > 10000",
    "SELECT COUNT(*) AS n FROM T WHERE NOT (url CONTAINS 'site1') AND c2 <= 4",
    "SELECT c1 AS a FROM T WHERE c1 < 3 OR c2 = 9 ORDER BY a LIMIT 50",
]


@pytest.mark.parametrize("sql", ADAPTIVE_DIFFERENTIAL_QUERIES)
def test_adaptive_matches_frozen(adaptive_twins, clicks_oracle, sql):
    frozen, adaptive = adaptive_twins
    # Two rounds: round two runs the frozen twin index-covered, so the
    # comparison pins both the cold and covered frozen paths.
    for _ in range(2):
        _assert_rows_match(clicks_oracle, frozen.query(sql), adaptive.query(sql), sql)


@pytest.mark.parametrize("seed", range(4))
def test_adaptive_matches_frozen_random(adaptive_twins, clicks_oracle, seed):
    frozen, adaptive = adaptive_twins
    rng = random.Random(2000 + seed)
    for _ in range(4):
        sql = _random_query(rng)
        _assert_rows_match(
            clicks_oracle, frozen.query(sql), adaptive.query(sql), sql, _divergence(sql)
        )


@pytest.mark.parametrize("seed", range(2))
def test_adaptive_matches_frozen_random_joins(adaptive_twins, clicks_oracle, seed):
    frozen, adaptive = adaptive_twins
    rng = random.Random(3000 + seed)
    for _ in range(3):
        sql = _random_join_query(rng)
        _assert_rows_match(
            clicks_oracle, frozen.query(sql), adaptive.query(sql), sql, _divergence(sql)
        )


# -- misestimate scenarios: re-plan fires, cost never regresses -----------------


def test_misestimate_replans_and_never_costs_more(skew_twins, skew_oracle):
    frozen, adaptive = skew_twins
    for sql in skewed_join_queries(6, seed=3):
        f = frozen.query(sql)
        a = adaptive.query(sql)
        _assert_rows_match(skew_oracle, f, a, sql)
        # The CONTAINS default selectivity is ~6x below the data's match
        # rate, so every one of these runs must have re-planned...
        assert a.stats.get("adaptive_waves", 0) == 2, sql
        assert a.stats.get("adaptive_replans", 0) >= 1, sql
        # ...and the re-planned run must never exceed the frozen plan's
        # modeled cost (slices charge proportionally; per-slice rounding
        # is the only slack allowed) nor its simulated latency.
        assert (
            a.stats["io_bytes_modeled"] <= f.stats["io_bytes_modeled"] * 1.001 + 8192
        ), sql
        assert a.stats["response_time_s"] <= f.stats["response_time_s"] * 1.02, sql


def test_join_groupby_statements_match_sqlite(skew_twins, skew_oracle):
    """The e2e ``join_groupby`` workload's 40 statements, on both twins."""
    for sql in skewed_join_queries(40, seed=9):
        for twin in skew_twins:
            divergence = skew_oracle(sql, twin.query(sql))
            assert divergence is None, (sql, divergence)


def test_no_misestimate_no_replan(adaptive_twins):
    """Accurate estimates over uniform data must not trigger a re-plan:
    a pure numeric range predicate is estimated from real histograms and
    the clicks data has no hot key, so the checkpoint observes nothing
    worth acting on (the skewed twin, by contrast, legitimately splits
    even when selectivity is accurate — its data IS skewed)."""
    _, adaptive = adaptive_twins
    result = adaptive.query("SELECT COUNT(*) AS n FROM T WHERE c1 >= 0")
    assert result.stats.get("adaptive_waves", 0) == 2
    assert result.stats.get("adaptive_replans", 0) == 0
    assert result.stats.get("adaptive_splits", 0) == 0


# -- eligibility is a condition on the job, not a second driver -----------------


@pytest.mark.parametrize(
    "adaptive, options",
    [
        (AdaptiveConfig(), JobOptions(sample_block_ratio=0.5)),
        (AdaptiveConfig(), JobOptions(min_processed_ratio=0.5)),
        (AdaptiveConfig(min_tasks=1000), JobOptions()),
    ],
    ids=["sampled", "early-return", "below-min-tasks"],
)
def test_ineligible_job_runs_as_on_a_frozen_cluster(adaptive, options):
    """What adaptive eligibility rules out runs the frozen single wave,
    attempt for attempt — including the retries a dead leaf causes, which
    only an adaptive wave counts as recovered partitions."""
    sql = "SELECT c2 AS k, COUNT(*) AS n FROM T WHERE c1 >= 20 GROUP BY k ORDER BY k"
    jobs = []
    for config in (None, adaptive):
        cluster = _clicks_twin(config)
        for leaf in cluster.leaves[1::2]:
            cluster.sim.schedule(0.004, leaf.crash)  # mid-task: their attempts are lost
        jobs.append(cluster.query_job(sql, options=options))
    frozen, ineligible = jobs

    def timeline(job):  # task ids carry a process-wide plan counter
        return [
            dataclasses.replace(t, task_id=t.task_id.split("/", 1)[1])
            for t in job.task_timeline
        ]

    assert timeline(ineligible) == timeline(frozen)
    assert ineligible.result.rows() == frozen.result.rows()
    assert ineligible.result.stats == frozen.result.stats  # no adaptive_* keys either
    assert ineligible.stats.backups_launched > 0
    assert ineligible.stats.adaptive_partitions_recovered == 0
    assert ineligible.stats.adaptive_waves == 0 and ineligible.plan_digest == ""


# -- the QueryHistory digest fix (pinned regression) ----------------------------


def test_history_keeps_original_plan_digest(skew_twins):
    """After a mid-query re-plan, history must retain the ORIGINAL plan
    fingerprint (what the optimizer first decided) and record the post
    re-plan digest separately — agreeing with EXPLAIN ANALYZE."""
    _, adaptive = skew_twins
    adaptive.create_user("differ", tables=["T", "D"])
    client = FeisuClient(adaptive, "differ")
    sql = skewed_join_queries(1, seed=11)[0]
    job = client.query_job(sql)
    assert job.stats.adaptive_replans >= 1
    entry = client.history.entries()[-1]
    assert entry.plan_digest == plan_fingerprint(job.plan)
    assert entry.post_plan_digest == job.replanned_plan_digest
    assert entry.post_plan_digest is not None
    assert entry.post_plan_digest != entry.plan_digest

    text = client.explain_analyze(sql)
    assert "actual adaptive:" in text
    assert (
        f"plan digest: {entry.plan_digest} -> {entry.post_plan_digest} (re-planned)"
        in text
    )


def test_frozen_history_digest_recorded(adaptive_twins):
    frozen, _ = adaptive_twins
    frozen.create_user("differ2", tables=["T"])
    client = FeisuClient(frozen, "differ2")
    job = client.query_job("SELECT COUNT(*) AS n FROM T WHERE c1 > 50")
    entry = client.history.entries()[-1]
    assert entry.plan_digest == plan_fingerprint(job.plan)
    assert entry.post_plan_digest is None


# -- skew-split algebra: split-then-merge == unsplit ----------------------------

_FUNCS = ["COUNT", "SUM", "MIN", "MAX"]


def _partial_over(keys: np.ndarray, values: np.ndarray) -> GroupedPartial:
    arrays = [None if f == "COUNT" else values for f in _FUNCS]
    return partial_aggregate([keys], _FUNCS, arrays, len(keys))


def _assert_partials_equal(whole: GroupedPartial, merged: GroupedPartial) -> None:
    assert set(whole.groups) == set(merged.groups)
    for key, states in whole.groups.items():
        for state_a, state_b in zip(states, merged.groups[key]):
            a, b = state_a.final(), state_b.final()
            if isinstance(a, float) and isinstance(b, float):
                assert (math.isnan(a) and math.isnan(b)) or math.isclose(
                    a, b, rel_tol=1e-9, abs_tol=1e-9
                ), key
            else:
                assert a == b, key


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(
        st.sampled_from([0.0, 1.0, 2.0, float("nan")]), min_size=0, max_size=48
    ),
    cuts=st.lists(st.integers(0, 48), max_size=5),
    data=st.data(),
)
def test_split_then_merge_equals_unsplit(keys, cuts, data):
    n = len(keys)
    values = data.draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    key_arr = np.array(keys, dtype=np.float64)
    val_arr = np.array(values, dtype=np.float64)
    whole = _partial_over(key_arr, val_arr)
    # Arbitrary sub-partitions, duplicates allowed -> empty slices too.
    edges = [0] + sorted(min(c, n) for c in cuts) + [n]
    merged = GroupedPartial(num_keys=1, agg_funcs=list(_FUNCS))
    for lo, hi in zip(edges, edges[1:]):
        merged.merge(_partial_over(key_arr[lo:hi], val_arr[lo:hi]))
    _assert_partials_equal(whole, merged)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(-2, 2), min_size=1, max_size=32),
    cut=st.integers(0, 32),
)
def test_split_then_merge_integer_sums_exact(keys, cut):
    """Integer SUM/COUNT must be bit-exact under any split."""
    n = len(keys)
    key_arr = np.array(keys, dtype=np.int64)
    val_arr = np.arange(n, dtype=np.int64) * 7 - 3
    whole = partial_aggregate([key_arr], ["COUNT", "SUM"], [None, val_arr], n)
    lo = min(cut, n)
    merged = partial_aggregate([key_arr[:lo]], ["COUNT", "SUM"], [None, val_arr[:lo]], lo)
    merged.merge(
        partial_aggregate([key_arr[lo:]], ["COUNT", "SUM"], [None, val_arr[lo:]], n - lo)
    )
    assert {k: [s.final() for s in v] for k, v in whole.groups.items()} == {
        k: [s.final() for s in v] for k, v in merged.groups.items()
    }


def test_nan_group_keys_merge_across_partials():
    """Pinned regression: distinct NaN float objects from different tasks
    must land in ONE group when partials merge (``nan != nan`` would
    otherwise duplicate the group per producing task)."""
    a = _partial_over(np.array([float("nan"), 1.0]), np.array([2.0, 3.0]))
    b = _partial_over(np.array([float("nan")]), np.array([5.0]))
    a.merge(b)
    nan_keys = [k for k in a.groups if k[0] != k[0]]
    assert len(nan_keys) == 1
    count, total, lo, hi = (s.final() for s in a.groups[nan_keys[0]])
    assert count == 2
    assert total == pytest.approx(7.0)
    assert (lo, hi) == (2.0, 5.0)
