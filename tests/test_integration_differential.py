"""Differential testing: the distributed engine vs. a naive reference.

The reference interpreter lives in :mod:`_oracle` (shared with the soak
test and the chaos matrix); queries here are generated randomly across
the dialect's feature space and must match it exactly (modulo float
tolerance and row order for unordered queries).

A second differential axis pits the fused morsel pipeline (S51,
``LeafConfig.enable_fused_pipelines``) against the operator-at-a-time
executor on twin clusters loaded with identical data: every query must
return byte-identical results AND identical modeled cost accounting
(``response_time_s``, ``io_bytes_modeled``), which is what lets the
committed figure results stay unchanged when the flag is flipped.

A third runs both executors task by task — cold and index-covered, with
plain and semantic (candidate-mask) index managers, on adaptive row
slices and on layout variants — and compares the rows with the oracle
and every ``TaskExecutionReport`` field with each other.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.cluster.node import LeafConfig
from repro.columnar.table import Catalog
from repro.engine.executor import execute_scan_task, finalize
from repro.engine.pipeline import execute_fused_scan_task
from repro.index.smartindex import SmartIndexManager
from repro.planner.expressions import Frame
from repro.planner.physical import build_plan
from repro.sim.netmodel import TopologySpec
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.storage.layouts import LayoutSpec, apply_layout
from repro.storage.loader import load_block, read_table_frame, store_table
from repro.storage.router import StorageRouter
from repro.storage.systems import DistributedFS
from tests._oracle import _match, _row_dicts, reference_execute
from tests.conftest import CLICKS_SCHEMA, make_clicks_columns

# -- query generation -----------------------------------------------------------



def _random_join_query(rng):
    """Star-schema joins against the D dimension (c2, label, weight)."""
    preds = []
    if rng.random() < 0.7:
        preds.append(f"c1 < {rng.randint(10, 100)}")
    if rng.random() < 0.4:
        preds.append(f"weight > 0.{rng.randint(1, 8)}")
    where = (" WHERE " + " AND ".join(f"({p})" for p in preds)) if preds else ""
    shape = rng.random()
    if shape < 0.5:
        return (
            f"SELECT label AS g, COUNT(*) AS n FROM T JOIN D ON T.c2 = D.c2{where} "
            "GROUP BY g ORDER BY g"
        )
    return (
        f"SELECT SUM(weight) AS w, COUNT(*) AS n FROM T JOIN D ON T.c2 = D.c2{where}"
    )


def _random_query(rng):
    preds = []
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        if kind < 0.55:
            col = rng.choice(["c1", "c2"])
            op = rng.choice([">", ">=", "<", "<=", "=", "!="])
            preds.append(f"{col} {op} {rng.randint(0, 12 if col == 'c2' else 100)}")
        elif kind < 0.75:
            preds.append(f"url CONTAINS 'site{rng.randint(0, 8)}'")
        elif kind < 0.9:
            preds.append(f"NOT (c2 > {rng.randint(0, 9)})")
        else:
            preds.append(
                f"c1 < {rng.randint(0, 100)} OR c2 = {rng.randint(0, 9)}"
            )
    where = (" WHERE " + " AND ".join(f"({p})" for p in preds)) if preds else ""
    shape = rng.random()
    if shape < 0.4:
        agg = rng.choice(["COUNT(*)", "SUM(c1)", "AVG(clicks)", "MIN(c1)", "MAX(c2)"])
        return f"SELECT {agg} AS v FROM T{where}"
    if shape < 0.75:
        return (
            f"SELECT c2 AS k, COUNT(*) AS n FROM T{where} "
            f"GROUP BY k ORDER BY k LIMIT {rng.randint(1, 12)}"
        )
    return f"SELECT c1 AS a, c2 AS b FROM T{where} ORDER BY a, b LIMIT {rng.randint(1, 40)}"


@pytest.mark.parametrize("seed", range(8))
def test_random_queries_match_reference(small_cluster, seed):
    rng = random.Random(seed)
    rows = _row_dicts(small_cluster._test_columns)
    for _ in range(6):
        sql = _random_query(rng)
        expected = reference_execute(sql, rows)
        got = small_cluster.query(sql).rows()
        assert len(got) == len(expected), sql
        for row_a, row_b in zip(got, expected):
            assert len(row_a) == len(row_b), sql
            for a, b in zip(row_a, row_b):
                assert _match(a, b), (sql, row_a, row_b)


@pytest.mark.parametrize("seed", range(4))
def test_random_join_queries_match_reference(small_cluster, seed):
    rng = random.Random(100 + seed)
    rows = _row_dicts(small_cluster._test_columns)
    dim_rows = _row_dicts(small_cluster._test_dim)
    for _ in range(4):
        sql = _random_join_query(rng)
        expected = reference_execute(sql, rows, join_tables={"D": dim_rows})
        got = small_cluster.query(sql).rows()
        assert len(got) == len(expected), sql
        for row_a, row_b in zip(got, expected):
            for a, b in zip(row_a, row_b):
                assert _match(a, b), (sql, row_a, row_b)


def test_sum_with_nulls_matches(small_cluster):
    # a filter matching nothing: SUM -> NULL semantics at the edge
    r = small_cluster.query("SELECT COUNT(*) n FROM T WHERE c1 > 10000")
    assert r.rows() == [(0,)]


# -- fused-vs-unfused differential (S51) ----------------------------------------


def _twin(enable_fused: bool) -> FeisuCluster:
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=4,
            leaf=LeafConfig(enable_fused_pipelines=enable_fused),
        )
    )
    columns = make_clicks_columns()
    cluster.load_table("T", CLICKS_SCHEMA, columns, storage="storage-a", block_rows=1500)
    dim = {
        "c2": np.arange(10),
        "label": np.array([f"grp{i}" for i in range(10)], dtype=object),
        "weight": np.linspace(0.1, 1.0, 10),
    }
    cluster.load_table(
        "D",
        Schema.of(c2=DataType.INT64, label=DataType.STRING, weight=DataType.FLOAT64),
        dim,
        storage="storage-b",
        block_rows=100,
    )
    return cluster


@pytest.fixture(scope="module")
def fused_twins():
    """Identical data, one cluster per executor mode."""
    return _twin(enable_fused=False), _twin(enable_fused=True)


#: Figure-shaped queries (the workloads behind the committed results)
#: plus edge shapes: empty matches, full scans, negation, OR residuals.
FUSED_DIFFERENTIAL_QUERIES = [
    "SELECT COUNT(*) AS n FROM T WHERE c1 > 50",
    "SELECT COUNT(*) AS n FROM T WHERE url CONTAINS 'site3'",
    "SELECT province, COUNT(*) AS n, SUM(c1) AS s FROM T "
    "WHERE c2 < 7 GROUP BY province ORDER BY province",
    "SELECT c2 AS k, AVG(clicks) AS a FROM T WHERE c1 >= 20 "
    "GROUP BY k ORDER BY a DESC LIMIT 5",
    "SELECT c1, c2, url FROM T WHERE c1 < 15 AND c2 = 3 ORDER BY c1, url LIMIT 25",
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


def _assert_results_identical(unfused, fused, sql):
    assert fused.columns == unfused.columns, sql
    assert fused.rows() == unfused.rows(), sql
    for key in ("response_time_s", "io_bytes_modeled", "index_full_covers",
                "index_clause_hits"):
        assert fused.stats[key] == unfused.stats[key], (sql, key)


@pytest.mark.parametrize("sql", FUSED_DIFFERENTIAL_QUERIES)
def test_fused_matches_unfused(fused_twins, sql):
    unfused_cluster, fused_cluster = fused_twins
    # Two rounds: the second runs index-covered (SmartIndex entries were
    # fed by round one), so both the cold and covered paths are pinned.
    for _ in range(2):
        _assert_results_identical(
            unfused_cluster.query(sql), fused_cluster.query(sql), sql
        )


@pytest.mark.parametrize("seed", range(4))
def test_fused_matches_unfused_random(fused_twins, seed):
    unfused_cluster, fused_cluster = fused_twins
    rng = random.Random(1000 + seed)
    for _ in range(5):
        sql = _random_query(rng)
        _assert_results_identical(
            unfused_cluster.query(sql), fused_cluster.query(sql), sql
        )


# -- task-level differential: rows AND every report field -----------------------
#
# Both executors filter on the encoded chunks and gather only matching
# payload rows through one ChunkReader; they differ in morsel splitting
# and threading.  Here every task runs through both, cold and
# index-covered, and must agree on the rows (with the oracle too) and on
# every TaskExecutionReport field that feeds the simulated clock.

#: The fused path's own bookkeeping; everything else must be identical.
_FUSED_ONLY_FIELDS = {"fused", "morsels", "workers", "morsel_wall_s"}

TASK_DIFFERENTIAL_QUERIES = [
    "SELECT COUNT(*) AS n, SUM(c1) AS s FROM T WHERE c1 < 60",
    "SELECT COUNT(*) AS n, SUM(c1) AS s FROM T WHERE c1 < 30",  # residual of the above
    "SELECT province AS p, COUNT(*) AS n, AVG(clicks) AS a FROM T "
    "WHERE url CONTAINS 'site3' AND c2 > 2 GROUP BY p ORDER BY p",
    "SELECT province AS p, COUNT(*) AS n FROM T WHERE url CONTAINS 'site' "
    "AND NOT (url CONTAINS 'site3') GROUP BY p ORDER BY p",
    "SELECT c1 AS a, c2 AS b, url AS u FROM T WHERE c1 <= 4 OR c2 = 9 "
    "ORDER BY a, b, u LIMIT 400",
    "SELECT c2 AS k, MIN(clicks) AS lo, MAX(clicks) AS hi FROM T "
    "WHERE c1 + c2 > 50 GROUP BY k ORDER BY k",  # opaque residual expression
    "SELECT COUNT(*) AS n FROM T WHERE c1 > 10000",
    "SELECT c2 AS k, COUNT(*) AS n FROM T GROUP BY k ORDER BY k",
    "SELECT label AS g, COUNT(*) AS n, SUM(weight) AS w FROM T JOIN D ON T.c2 = D.c2 "
    "WHERE c1 < 40 AND weight > 0.25 GROUP BY g ORDER BY g",
]


@pytest.fixture(scope="module")
def task_env():
    nodes = TopologySpec(1, 1, 2).addresses()
    fs = DistributedFS(nodes)
    router = StorageRouter()
    router.register(fs, default=True)
    catalog = Catalog()
    columns = make_clicks_columns()
    store_table("T", CLICKS_SCHEMA, columns, router, fs, block_rows=1500, catalog=catalog)
    dim = {
        "c2": np.arange(10),
        "label": np.array([f"grp{i}" for i in range(10)], dtype=object),
        "weight": np.linspace(0.1, 1.0, 10),
    }
    dim_schema = Schema.of(c2=DataType.INT64, label=DataType.STRING, weight=DataType.FLOAT64)
    store_table("D", dim_schema, dim, router, fs, catalog=catalog)
    return router, catalog, _row_dicts(columns), {"D": _row_dicts(dim)}


def _compile(task_env, sql):
    router, catalog, _rows, _dim = task_env
    plan = build_plan(analyze(parse(sql), catalog))
    broadcasts = {
        bc.binding: Frame.from_columns(
            read_table_frame(router, catalog.get(bc.table_name), list(bc.columns))
        )
        for bc in plan.broadcasts
    }
    return plan, broadcasts, [load_block(router, t.block) for t in plan.tasks]


def _assert_reports_identical(unfused, fused, context):
    for u, f in zip(unfused, fused):
        for field in dataclasses.fields(u.report):
            if field.name not in _FUSED_ONLY_FIELDS:
                assert getattr(u.report, field.name) == getattr(f.report, field.name), (
                    context, u.task_id, field.name,
                )


def _assert_matches_oracle(task_env, plan, results, sql):
    _router, _catalog, rows, dim_rows = task_env
    expected = reference_execute(sql, rows, join_tables=dim_rows)
    got = finalize(plan, results).rows()
    assert len(got) == len(expected), sql
    for row_a, row_b in zip(got, expected):
        assert len(row_a) == len(row_b), sql
        for a, b in zip(row_a, row_b):
            assert _match(a, b), (sql, row_a, row_b)


@pytest.mark.parametrize("index", ["none", "plain", "semantic"])
def test_tasks_agree_on_rows_and_every_report_field(task_env, index):
    managers = {
        "none": (None, None),
        "plain": (SmartIndexManager(), SmartIndexManager()),
        "semantic": (SmartIndexManager(semantic=True), SmartIndexManager(semantic=True)),
    }[index]
    residual_clauses = 0
    for sql in TASK_DIFFERENTIAL_QUERIES:
        plan, broadcasts, blocks = _compile(task_env, sql)
        for round_ in ("cold", "covered"):
            unfused = [
                execute_scan_task(t, plan, b, broadcasts, index_manager=managers[0], now=1.0)
                for t, b in zip(plan.tasks, blocks)
            ]
            fused = [
                execute_fused_scan_task(
                    t, plan, b, broadcasts, index_manager=managers[1], now=1.0,
                    worker_threads=2, morsel_rows=400,
                )
                for t, b in zip(plan.tasks, blocks)
            ]
            _assert_reports_identical(unfused, fused, (sql, round_))
            assert finalize(plan, fused).rows() == finalize(plan, unfused).rows(), sql
            _assert_matches_oracle(task_env, plan, unfused, sql)
            residual_clauses += sum(r.report.index_residual_clauses for r in unfused)
    # The semantic manager must actually have answered with candidate masks.
    assert (residual_clauses > 0) == (index == "semantic")


@pytest.mark.parametrize("sql", TASK_DIFFERENTIAL_QUERIES)
def test_row_slices_agree_and_sum_to_the_whole_block(task_env, sql):
    plan, broadcasts, blocks = _compile(task_env, sql)
    whole = [execute_scan_task(t, plan, b, broadcasts) for t, b in zip(plan.tasks, blocks)]
    unfused, fused = [], []
    for task, block in zip(plan.tasks, blocks):
        cuts = [0, 1, block.num_rows // 3, block.num_rows - 7, block.num_rows]
        for lo, hi in zip(cuts, cuts[1:]):
            part = dataclasses.replace(task, task_id=f"{task.task_id}.{lo}", row_slice=(lo, hi))
            unfused.append(execute_scan_task(part, plan, block, broadcasts))
            fused.append(execute_fused_scan_task(part, plan, block, broadcasts, morsel_rows=400))
    _assert_reports_identical(unfused, fused, sql)
    _assert_matches_oracle(task_env, plan, unfused, sql)
    _assert_matches_oracle(task_env, plan, fused, sql)
    for field in ("rows_in_block", "rows_matched"):
        assert sum(getattr(r.report, field) for r in unfused) == sum(
            getattr(r.report, field) for r in whole
        ), field


@pytest.mark.parametrize(
    "spec",
    [
        LayoutSpec(sort_column="c1"),
        LayoutSpec(sort_column="url", copartition_column="c2"),
        LayoutSpec(copartition_column="c2", columns=("c1", "c2", "url", "clicks", "province")),
    ],
)
def test_layout_variants_agree(task_env, spec):
    for sql in TASK_DIFFERENTIAL_QUERIES:
        plan, broadcasts, blocks = _compile(task_env, sql)
        variants = [apply_layout(b, spec) for b in blocks]
        unfused = [
            execute_scan_task(t, plan, v, broadcasts, layout=spec)
            for t, v in zip(plan.tasks, variants)
        ]
        fused = [
            execute_fused_scan_task(t, plan, v, broadcasts, layout=spec, morsel_rows=400)
            for t, v in zip(plan.tasks, variants)
        ]
        _assert_reports_identical(unfused, fused, sql)
        _assert_matches_oracle(task_env, plan, unfused, sql)
        _assert_matches_oracle(task_env, plan, fused, sql)
