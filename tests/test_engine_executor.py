"""Leaf-task execution and master finalization, in isolation."""

import sys

import numpy as np
import pytest

from repro.columnar.schema import DataType, Schema
from repro.columnar.table import Catalog
from repro.engine.executor import execute_scan_task, finalize
from repro.index.btree import BTreeIndex
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


def run_query(env, sql, paths=(), now=0.0):
    router, catalog, _ = env
    plan = build_plan(analyze(parse(sql), catalog))
    broadcasts = {}
    for bc in plan.broadcasts:
        table = catalog.get(bc.table_name)
        broadcasts[bc.binding] = Frame.from_columns(
            read_table_frame(router, table, list(bc.columns))
        )
    results = [
        execute_scan_task(
            task,
            plan,
            load_block(router, task.block),
            broadcasts,
            paths=paths,
            now=now,
        )
        for task in plan.tasks
    ]
    return finalize(plan, results), results


def test_count_star_no_filter(env):
    result, _ = run_query(env, "SELECT COUNT(*) FROM T")
    assert result.rows() == [(N,)]


def test_projection_no_filter(env):
    result, _ = run_query(env, "SELECT c1 FROM T")
    _, _, columns = env
    assert result.num_rows == N
    assert (result.column("c1") == columns["c1"]).all()


def test_filter_counts_match_numpy(env):
    _, _, columns = env
    result, _ = run_query(env, "SELECT COUNT(*) FROM T WHERE c2 >= 7")
    assert result.rows()[0][0] == int((columns["c2"] >= 7).sum())


def test_or_filter(env):
    _, _, columns = env
    result, _ = run_query(env, "SELECT COUNT(*) FROM T WHERE c2 = 1 OR c1 < 10")
    expected = int(((columns["c2"] == 1) | (columns["c1"] < 10)).sum())
    assert result.rows()[0][0] == expected


def test_contains_filter(env):
    _, _, columns = env
    result, _ = run_query(env, "SELECT COUNT(*) FROM T WHERE url CONTAINS 's3.com'")
    expected = sum("s3.com" in u for u in columns["url"])
    assert result.rows()[0][0] == expected


def test_group_by_with_having_order_limit(env):
    _, _, columns = env
    result, _ = run_query(
        env,
        "SELECT c2, COUNT(*) AS n FROM T GROUP BY c2 HAVING COUNT(*) > 0 "
        "ORDER BY n DESC, c2 ASC LIMIT 4",
    )
    counts = np.bincount(columns["c2"])
    expected = sorted(
        [(int(v), int(c)) for v, c in enumerate(counts)], key=lambda p: (-p[1], p[0])
    )[:4]
    assert result.rows() == expected


def test_avg_and_sum_accuracy(env):
    _, _, columns = env
    result, _ = run_query(env, "SELECT SUM(clicks) s, AVG(clicks) a FROM T WHERE c2 = 3")
    mask = columns["c2"] == 3
    assert result.rows()[0][0] == pytest.approx(float(columns["clicks"][mask].sum()))
    assert result.rows()[0][1] == pytest.approx(float(columns["clicks"][mask].mean()))


def test_arithmetic_in_select(env):
    result, _ = run_query(env, "SELECT MAX(c1 * 2 + 1) m FROM T")
    _, _, columns = env
    assert result.rows()[0][0] == int(columns["c1"].max() * 2 + 1)


def test_join_group_by(env):
    _, _, columns = env
    result, _ = run_query(
        env,
        "SELECT label, COUNT(*) n FROM T JOIN D ON T.c2 = D.c2 GROUP BY label ORDER BY label",
    )
    counts = np.bincount(columns["c2"], minlength=10)
    expected = [(f"g{i}", int(counts[i])) for i in range(10) if counts[i] > 0]
    assert result.rows() == expected


def test_index_full_cover_second_run(env):
    mgr = SmartIndexManager()
    sql = "SELECT COUNT(*) FROM T WHERE c2 > 2 AND c2 <= 7"
    r1, res1 = run_query(env, sql, paths=[mgr])
    r2, res2 = run_query(env, sql, paths=[mgr], now=1.0)
    assert r1.rows() == r2.rows()
    assert all(not r.report.index_full_cover for r in res1)
    assert all(r.report.index_full_cover for r in res2)
    assert sum(r.report.io_bytes for r in res2) == 0  # COUNT(*): nothing to read


def test_index_cover_with_payload_reads_less(env):
    mgr = SmartIndexManager()
    sql = "SELECT SUM(clicks) FROM T WHERE c2 > 2 AND c2 <= 7"
    _, res1 = run_query(env, sql, paths=[mgr])
    _, res2 = run_query(env, sql, paths=[mgr], now=1.0)
    io1 = sum(r.report.io_bytes for r in res1)
    io2 = sum(r.report.io_bytes for r in res2)
    assert 0 < io2 < io1


def test_cold_pass_feeds_the_index_in_clause_order(env):
    """One entry per evaluated atom per block, inserted in CNF order."""
    _, catalog, _ = env
    mgr = SmartIndexManager()
    run_query(env, "SELECT c1 FROM T WHERE c1 > 60 AND c2 = 4", paths=[mgr])
    blocks = catalog.get("T").blocks
    assert mgr.entry_count == 2 * len(blocks)
    for ref in blocks:
        keys = [e.predicate_key for e in mgr.entries_for_block(ref.block_id)]
        assert keys == ["c1 > 60", "c2 = 4"]


def test_index_covered_pass_reads_nothing_where_no_row_matches(env):
    """Covered tasks read payload columns only — and nothing at all from
    a block whose cover says no row matches."""
    mgr = SmartIndexManager()
    sql = "SELECT c1 FROM T WHERE c1 > 98 AND c2 = 4"
    r1, res1 = run_query(env, sql, paths=[mgr])
    r2, res2 = run_query(env, sql, paths=[mgr], now=1.0)
    assert r1.rows() == r2.rows()
    assert all(r.report.index_full_cover for r in res2)
    assert all(s.report.io_bytes < f.report.io_bytes for s, f in zip(res2, res1))
    empty = [s.report for s in res2 if s.report.rows_matched == 0]
    assert empty and all(r.io_bytes == 0 and r.io_seeks == 0 for r in empty)
    assert any(s.report.io_bytes > 0 for s in res2)


def test_btree_answers_supported_clauses(env):
    _, catalog, columns = env
    trees = BTreeIndex()
    result, res = run_query(env, "SELECT COUNT(*) FROM T WHERE c2 >= 7", paths=[trees])
    assert result.rows()[0][0] == int((columns["c2"] >= 7).sum())
    assert all(r.report.btree_clauses == 1 for r in res)
    assert all(r.report.index_full_cover for r in res)
    assert trees.builds == len(catalog.get("T").blocks)  # one tree per block, on c2
    run_query(env, "SELECT COUNT(*) FROM T WHERE c2 < 3", paths=[trees], now=1.0)
    assert trees.builds == len(catalog.get("T").blocks)  # ...built once


def test_btree_cannot_answer_contains(env):
    trees = BTreeIndex()
    result, res = run_query(
        env, "SELECT COUNT(*) FROM T WHERE url CONTAINS 's1.com'", paths=[trees]
    )
    assert all(r.report.btree_clauses == 0 for r in res)
    assert trees.builds == 0  # no tree is built for an atom it cannot answer


def test_partial_results_ratio(env):
    router, catalog, columns = env
    plan = build_plan(analyze(parse("SELECT COUNT(*) FROM T"), catalog))
    results = [
        execute_scan_task(task, plan, load_block(router, task.block), {})
        for task in plan.tasks[: len(plan.tasks) // 2]
    ]
    result = finalize(plan, results, processed_ratio=0.5)
    assert result.processed_ratio == 0.5
    assert 0 < result.rows()[0][0] < N


def test_empty_result_projection(env):
    result, _ = run_query(env, "SELECT c1, url FROM T WHERE c1 > 10000")
    assert result.num_rows == 0
    assert result.columns == ["c1", "url"]


def test_limit_without_order_pushed_down(env):
    result, res = run_query(env, "SELECT c1 FROM T LIMIT 5")
    assert result.num_rows == 5
    # each task returned at most LIMIT rows
    assert all(r.frame.num_rows <= 5 for r in res)


def test_topk_pushdown_with_order_by(env):
    """Leaves ship at most LIMIT rows when the sort keys are base columns."""
    _, _, columns = env
    result, res = run_query(env, "SELECT c1, clicks FROM T ORDER BY clicks DESC LIMIT 7")
    assert result.num_rows == 7
    assert all(r.frame.num_rows <= 7 for r in res)
    expected = np.sort(columns["clicks"])[::-1][:7]
    assert list(result.column("clicks")) == pytest.approx(list(expected))


def test_topk_pushdown_skipped_for_expression_keys(env):
    result, res = run_query(env, "SELECT c1, clicks FROM T ORDER BY c1 * 2 LIMIT 5")
    assert result.num_rows == 5
    # expression sort keys disable the leaf-side cut, results still correct
    _, _, columns = env
    assert result.rows()[0][0] == int(columns["c1"].min())


def test_topk_pushdown_multi_key_global_order(env):
    _, _, columns = env
    result, _ = run_query(env, "SELECT c2, c1 FROM T ORDER BY c2 ASC, c1 DESC LIMIT 10")
    pairs = sorted(zip(columns["c2"], columns["c1"]), key=lambda p: (p[0], -p[1]))[:10]
    assert result.rows() == [(int(a), int(b)) for a, b in pairs]


def test_scan_task_runs_no_python_per_row():
    """Guard: a CONTAINS + group-by scan over a 50k-row block whose
    string column is dictionary-coded makes a few hundred calls, not one
    (or more) per row — predicates are answered on the 64 uniques and
    payload rows are gathered by numpy."""
    rows = 50_000
    nodes = TopologySpec(1, 1, 1).addresses()
    fs = DistributedFS(nodes)
    router = StorageRouter()
    router.register(fs, default=True)
    catalog = Catalog()
    rng = np.random.default_rng(3)
    words = np.array([f"{w}{j:02d}" for w in ("alpha", "bravo", "delta", "gamma")
                      for j in range(16)], dtype=object)
    columns = {
        "g": rng.integers(0, 16, rows),
        "x": rng.random(rows),
        "s": words[rng.integers(0, len(words), rows)],
    }
    schema = Schema.of(g=DataType.INT64, x=DataType.FLOAT64, s=DataType.STRING)
    store_table("B", schema, columns, router, fs, block_rows=rows, catalog=catalog)
    plan = build_plan(analyze(parse(
        "SELECT g, COUNT(*) AS n, SUM(x) AS sx FROM B WHERE s CONTAINS 'ha0' GROUP BY g"
    ), catalog))
    (task,) = plan.tasks
    block = load_block(router, task.block)
    assert block.chunks["s"].encoding_tag == 2  # dictionary

    calls = 0

    def count(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        result = execute_scan_task(task, plan, block, {})
    finally:
        sys.setprofile(None)
    assert result.report.rows_matched == int(np.sum(["ha0" in v for v in columns["s"]]))
    assert calls < 2_000, calls
