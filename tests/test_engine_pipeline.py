"""Fused scan pipelines (engine.pipeline): parity with the unfused
executor at TaskResult granularity, morsel boundary handling, the
merge-exact gate, index feeding, and the pool plumbing."""

import numpy as np
import pytest

from repro.columnar.schema import DataType, Schema
from repro.columnar.table import Catalog
from repro.engine.executor import execute_scan_task, finalize
from repro.engine.pipeline import (
    DEFAULT_MORSEL_ROWS,
    FusedPipeline,
    execute_fused_scan_task,
    merge_exact_aggregation,
    resolve_worker_threads,
    worker_pool,
)
from repro.index.smartindex import SmartIndexManager
from repro.planner.expressions import Frame
from repro.planner.physical import build_plan
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.storage.loader import load_block, read_table_frame, store_table
from repro.storage.router import StorageRouter
from repro.storage.systems import DistributedFS
from repro.sim.netmodel import TopologySpec

N = 5000


@pytest.fixture(scope="module")
def env():
    nodes = TopologySpec(1, 1, 4).addresses()
    hdfs = DistributedFS(nodes)
    router = StorageRouter()
    router.register(hdfs, default=True)
    catalog = Catalog()
    rng = np.random.default_rng(9)
    columns = {
        "c1": rng.integers(0, 100, N),
        "c2": rng.integers(0, 10, N),
        "url": np.array([f"http://s{i % 6}.com/p{i % 11}" for i in range(N)], dtype=object),
        "clicks": rng.random(N),
    }
    schema = Schema.of(
        c1=DataType.INT64, c2=DataType.INT64, url=DataType.STRING, clicks=DataType.FLOAT64
    )
    store_table("T", schema, columns, router, hdfs, block_rows=1024, catalog=catalog)
    dim = {
        "c2": np.arange(10, dtype=np.int64),
        "label": np.array([f"g{i}" for i in range(10)], dtype=object),
    }
    store_table(
        "D", Schema.of(c2=DataType.INT64, label=DataType.STRING), dim, router, hdfs, catalog=catalog
    )
    return router, catalog, columns


def _plan_and_broadcasts(env, sql):
    router, catalog, _ = env
    plan = build_plan(analyze(parse(sql), catalog))
    broadcasts = {}
    for bc in plan.broadcasts:
        table = catalog.get(bc.table_name)
        broadcasts[bc.binding] = Frame.from_columns(
            read_table_frame(router, table, list(bc.columns))
        )
    return plan, broadcasts


def _run_both(env, sql, morsel_rows=DEFAULT_MORSEL_ROWS, managers=(None, None)):
    """Execute every task unfused and fused; returns paired result lists."""
    router, _catalog, _ = env
    plan, broadcasts = _plan_and_broadcasts(env, sql)
    unfused, fused = [], []
    for task in plan.tasks:
        block = load_block(router, task.block)
        unfused.append(
            execute_scan_task(task, plan, block, broadcasts, index_manager=managers[0])
        )
        fused.append(
            execute_fused_scan_task(
                task, plan, block, broadcasts,
                index_manager=managers[1], morsel_rows=morsel_rows,
            )
        )
    return plan, unfused, fused


def _assert_task_parity(plan, unfused, fused):
    for u, f in zip(unfused, fused):
        assert f.report.fused and not u.report.fused
        for field in ("io_bytes", "io_seeks", "cpu_ops", "rows_matched",
                      "rows_in_block", "index_full_cover"):
            assert getattr(u.report, field) == getattr(f.report, field), field
        if u.frame is not None:
            assert f.frame is not None
            assert list(u.frame.columns) == list(f.frame.columns)
            for name, col in u.frame.columns.items():
                other = f.frame.columns[name]
                assert col.dtype == other.dtype, name
                assert np.array_equal(col, other), name
    ru = finalize(plan, unfused)
    rf = finalize(plan, fused)
    assert ru.rows() == rf.rows()
    assert ru.columns == rf.columns


PARITY_QUERIES = [
    "SELECT c1, clicks FROM T WHERE c1 > 50 AND c2 = 3",
    "SELECT COUNT(*) FROM T",
    "SELECT c1 FROM T",
    "SELECT COUNT(*), SUM(c1), MIN(c1), MAX(c1) FROM T WHERE c2 >= 7",
    "SELECT c2, SUM(clicks), AVG(clicks) FROM T WHERE c1 < 40 GROUP BY c2",
    "SELECT c1, url FROM T WHERE url CONTAINS 'p7' OR c1 = 3",
    "SELECT c1 FROM T WHERE c1 > 90 ORDER BY c1 LIMIT 7",
    "SELECT T.c1, D.label FROM T JOIN D ON T.c2 = D.c2 WHERE T.c1 > 80",
    "SELECT D.label, COUNT(*) FROM T LEFT JOIN D ON T.c2 = D.c2 GROUP BY D.label",
]


@pytest.mark.parametrize("sql", PARITY_QUERIES)
def test_fused_matches_unfused_per_task(env, sql):
    plan, unfused, fused = _run_both(env, sql)
    _assert_task_parity(plan, unfused, fused)


@pytest.mark.parametrize("morsel_rows", [1, 7, 1000, 1024, 5000])
def test_morsel_boundaries(env, morsel_rows):
    sql = "SELECT c2, SUM(c1), COUNT(*) FROM T WHERE c1 > 30 GROUP BY c2"
    plan, unfused, fused = _run_both(env, sql, morsel_rows=morsel_rows)
    _assert_task_parity(plan, unfused, fused)
    expected = -(-1024 // morsel_rows)  # blocks are 1024 rows
    assert all(f.report.morsels == min(expected, -(-f.report.rows_in_block // morsel_rows))
               for f in fused)


def test_index_feeding_matches_unfused(env):
    sql = "SELECT c1 FROM T WHERE c1 > 60 AND c2 = 4"
    mgr_u, mgr_f = SmartIndexManager(), SmartIndexManager()
    plan, unfused, fused = _run_both(env, sql, morsel_rows=200, managers=(mgr_u, mgr_f))
    _assert_task_parity(plan, unfused, fused)
    assert mgr_u.entry_count == mgr_f.entry_count > 0
    assert mgr_u.used_bytes == mgr_f.used_bytes
    for task in plan.tasks:
        keys_u = sorted(e.predicate_key for e in mgr_u.entries_for_block(task.block.block_id))
        keys_f = sorted(e.predicate_key for e in mgr_f.entries_for_block(task.block.block_id))
        assert keys_u == keys_f


def test_index_covered_second_pass(env):
    """Second fused pass answers from the index — including the
    empty-cover shortcut when a block has no matching rows."""
    sql = "SELECT c1 FROM T WHERE c1 > 97 AND c2 = 4"
    router, _catalog, _ = env
    plan, broadcasts = _plan_and_broadcasts(env, sql)
    mgr = SmartIndexManager()
    blocks = [load_block(router, t.block) for t in plan.tasks]
    first = [
        execute_fused_scan_task(t, plan, b, broadcasts, index_manager=mgr, morsel_rows=100)
        for t, b in zip(plan.tasks, blocks)
    ]
    second = [
        execute_fused_scan_task(t, plan, b, broadcasts, index_manager=mgr, morsel_rows=100)
        for t, b in zip(plan.tasks, blocks)
    ]
    assert all(r.report.index_full_cover for r in second)
    assert finalize(plan, first).rows() == finalize(plan, second).rows()
    # Covered tasks read payload columns only (or nothing when no rows match).
    assert all(s.report.io_bytes <= f.report.io_bytes for s, f in zip(second, first))


def test_merge_exact_gate(env):
    _router, catalog, _ = env

    def gate(sql):
        return merge_exact_aggregation(build_plan(analyze(parse(sql), catalog)))

    assert gate("SELECT COUNT(*) FROM T")
    assert gate("SELECT c2, COUNT(*), SUM(c1), MIN(c1), MAX(c1) FROM T GROUP BY c2")
    assert not gate("SELECT SUM(clicks) FROM T")  # float: reassociates
    assert not gate("SELECT AVG(c1) FROM T")  # AVG: reassociates
    assert not gate("SELECT c1 FROM T")  # not an aggregate
    assert not gate(
        "SELECT COUNT(*) FROM T JOIN D ON T.c2 = D.c2"
    )  # joins run on the driver


def test_lazy_decode_equivalence(env):
    """The encoding-aware reader agrees with a full decode (the
    codec x dtype x op matrix lives in test_columnar_reader_property)."""
    router, _catalog, _ = env
    sql = "SELECT c1 FROM T"
    plan, _ = _plan_and_broadcasts(env, sql)
    block = load_block(router, plan.tasks[0].block)
    rows = np.arange(0, block.num_rows, 3)
    for name, chunk in block.chunks.items():
        decoded = chunk.decode()
        reader = chunk.reader()
        assert np.array_equal(reader.values(), decoded)
        assert np.array_equal(reader.take(rows), decoded[rows])
        first = decoded[0]
        assert np.array_equal(reader.map_bool(lambda v: v == first), decoded == first)


def test_pipeline_exposes_morsels(env):
    router, _catalog, _ = env
    plan, _ = _plan_and_broadcasts(env, "SELECT c1 FROM T WHERE c1 > 50")
    task = plan.tasks[0]
    pipe = FusedPipeline(task, plan, load_block(router, task.block), morsel_rows=300)
    assert [hi - lo for lo, hi in pipe.morsels[:-1]] == [300] * (len(pipe.morsels) - 1)
    assert pipe.morsels[-1][1] == task.block.num_rows


def test_worker_pool_reuse_and_sizing():
    assert resolve_worker_threads(3) == 3
    assert resolve_worker_threads(0) >= 1
    pool = worker_pool(2)
    assert worker_pool(2) is pool
    assert pool.submit(lambda: 41 + 1).result() == 42


def test_fused_runs_on_pool(env):
    """Force multi-threaded morsel execution and check parity still holds."""
    sql = "SELECT c2, SUM(c1), COUNT(*) FROM T WHERE c1 > 20 GROUP BY c2"
    router, _catalog, _ = env
    plan, broadcasts = _plan_and_broadcasts(env, sql)
    unfused, fused = [], []
    for task in plan.tasks:
        block = load_block(router, task.block)
        unfused.append(execute_scan_task(task, plan, block, broadcasts))
        fused.append(
            execute_fused_scan_task(
                task, plan, block, broadcasts, worker_threads=4, morsel_rows=128
            )
        )
    _assert_task_parity(plan, unfused, fused)
    assert all(r.report.workers == 4 for r in fused)
    assert all(r.report.morsel_wall_s >= 0.0 for r in fused)
