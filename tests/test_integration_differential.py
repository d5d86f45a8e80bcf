"""Differential testing: the distributed engine vs. stdlib ``sqlite3``.

The oracle is :mod:`tests._oracle`: sqlite over the same rows, sharing no
code with the engine, where a statement that sqlite answers with a NULL
must name one of its ``DIVERGENCES``. Queries here are generated
randomly across the dialect's feature space, 2 000 draws a run, and must
match it (modulo float tolerance, and row order where no ORDER BY fixes
it).

A fixed list of figure-shaped queries runs twice through the cluster —
cold, then with the SmartIndex entries round one fed — so the covered
path is pinned against the oracle too.

A task-level section runs ``execute_scan_task`` task by task — cold and
index-covered, with and without an index manager, on adaptive row
slices and on layout variants — and compares the rows with the oracle.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro import DataType, Schema
from repro.columnar.table import Catalog
from repro.engine.executor import execute_scan_task, finalize
from repro.index.btree import BTreeIndex
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
from tests._oracle import oracle_for
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


def _divergence(sql):
    """What a generated statement names: the generators' global aggregates
    (no GROUP BY, no ORDER BY) may run over no rows."""
    return None if " GROUP BY " in sql or " ORDER BY " in sql else "empty aggregate"


@pytest.fixture(scope="module")
def oracle(small_cluster):
    with oracle_for({"T": small_cluster._test_columns, "D": small_cluster._test_dim}) as db:
        yield db


@pytest.mark.parametrize("seed", range(8))
def test_random_queries_match_reference(small_cluster, oracle, seed):
    rng = random.Random(seed)
    for _ in range(200):
        sql = _random_query(rng)
        divergence = oracle(sql, small_cluster.query(sql), _divergence(sql))
        assert divergence is None, (sql, divergence)


@pytest.mark.parametrize("seed", range(4))
def test_random_join_queries_match_reference(small_cluster, oracle, seed):
    rng = random.Random(100 + seed)
    for _ in range(100):
        sql = _random_join_query(rng)
        divergence = oracle(sql, small_cluster.query(sql), _divergence(sql))
        assert divergence is None, (sql, divergence)


def test_sum_with_nulls_matches(small_cluster):
    # a filter matching nothing: SUM -> NULL semantics at the edge
    r = small_cluster.query("SELECT COUNT(*) n FROM T WHERE c1 > 10000")
    assert r.rows() == [(0,)]


# -- figure-shaped queries, cold then index-covered ------------------------------

#: Figure-shaped queries (the workloads behind the committed results)
#: plus edge shapes: empty matches, full scans, negation, OR residuals.
DIFFERENTIAL_QUERIES = [
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
    # Join aggregates a leaf computes per join key before joining (S67) ...
    "SELECT T.c2 AS k, label AS g, COUNT(*) AS n, SUM(clicks) AS s FROM T "
    "JOIN D ON T.c2 = D.c2 WHERE c1 < 60 GROUP BY k, g ORDER BY k, g",
    "SELECT COUNT(*) AS n, SUM(clicks) AS s FROM T JOIN D ON T.c2 = D.c2",
    "SELECT label AS g, MIN(url) AS lo, MAX(clicks) AS hi FROM T "
    "JOIN D ON T.c2 = D.c2 GROUP BY g ORDER BY g",
    "SELECT label AS g, COUNT(*) AS n FROM T JOIN D ON T.c2 = D.c2 "
    "WHERE weight > 0.5 GROUP BY g ORDER BY g",
    # ... and near misses that join row by row: a residual reading both
    # sides, an outer join.
    "SELECT label AS g, COUNT(*) AS n FROM T JOIN D ON T.c2 = D.c2 "
    "WHERE c1 > weight * 100 GROUP BY g ORDER BY g",
    "SELECT label AS g, COUNT(*) AS n, AVG(clicks) AS a FROM T "
    "LEFT JOIN D ON T.c2 = D.c2 GROUP BY g ORDER BY g",
]


@pytest.mark.parametrize("sql", DIFFERENTIAL_QUERIES)
def test_queries_match_oracle(small_cluster, oracle, sql):
    # Two rounds: round one feeds the SmartIndex whatever it did not hold
    # yet, so round two is answered from it — both paths are pinned.
    for round_ in ("cold", "covered"):
        result = small_cluster.query(sql)
        divergence = oracle(sql, result)
        assert divergence is None, (sql, round_, divergence)
    assert result.stats["index_clause_misses"] == 0, sql


# -- task-level differential ------------------------------------------------------
#
# Every task of every query runs through ``execute_scan_task`` directly,
# cold and index-covered, and the finalized rows must match the oracle.

TASK_DIFFERENTIAL_QUERIES = [
    "SELECT COUNT(*) AS n, SUM(c1) AS s FROM T WHERE c1 < 60",
    "SELECT COUNT(*) AS n, SUM(c1) AS s FROM T WHERE c1 < 30",  # narrower than the above
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
    with oracle_for({"T": columns, "D": dim}) as oracle:
        yield router, catalog, oracle


def _compile(task_env, sql):
    router, catalog, _oracle = task_env
    plan = build_plan(analyze(parse(sql), catalog))
    broadcasts = {
        bc.binding: Frame.from_columns(
            read_table_frame(router, catalog.get(bc.table_name), list(bc.columns))
        )
        for bc in plan.broadcasts
    }
    return plan, broadcasts, [load_block(router, t.block) for t in plan.tasks]


def _assert_matches_oracle(task_env, plan, results, sql):
    _router, _catalog, oracle = task_env
    divergence = oracle(sql, finalize(plan, results))
    assert divergence is None, (sql, divergence)


@pytest.mark.parametrize("index", ["none", "plain"])
def test_tasks_match_oracle(task_env, index):
    paths = {"none": [], "plain": [SmartIndexManager()]}[index]
    full_covers = 0
    for sql in TASK_DIFFERENTIAL_QUERIES:
        plan, broadcasts, blocks = _compile(task_env, sql)
        for round_ in ("cold", "covered"):
            results = [
                execute_scan_task(t, plan, b, broadcasts, paths=paths, now=1.0)
                for t, b in zip(plan.tasks, blocks)
            ]
            _assert_matches_oracle(task_env, plan, results, sql)
            if round_ == "covered":
                full_covers += sum(r.report.index_full_cover for r in results)
    # The second round really ran index-covered.
    assert (full_covers > 0) == (index != "none")


@pytest.mark.parametrize("sql", TASK_DIFFERENTIAL_QUERIES)
def test_row_slices_agree_and_sum_to_the_whole_block(task_env, sql):
    plan, broadcasts, blocks = _compile(task_env, sql)
    whole = [execute_scan_task(t, plan, b, broadcasts) for t, b in zip(plan.tasks, blocks)]
    sliced = []
    for task, block in zip(plan.tasks, blocks):
        cuts = [0, 1, block.num_rows // 3, block.num_rows - 7, block.num_rows]
        for lo, hi in zip(cuts, cuts[1:]):
            part = dataclasses.replace(task, task_id=f"{task.task_id}.{lo}", row_slice=(lo, hi))
            sliced.append(execute_scan_task(part, plan, block, broadcasts))
    _assert_matches_oracle(task_env, plan, sliced, sql)
    for field in ("rows_in_block", "rows_matched"):
        assert sum(getattr(r.report, field) for r in sliced) == sum(
            getattr(r.report, field) for r in whole
        ), field


class _IntegerRowsReader:
    """Forwards to a real reader, asserting every ``rows`` is an integer
    id array (``take`` would read a boolean mask as the ids 0 and 1)."""

    def __init__(self, inner, seen):
        self._inner = inner
        self._seen = seen

    def _check(self, rows):
        assert isinstance(rows, np.ndarray) and rows.dtype.kind in "iu", rows.dtype
        self._seen.append(len(rows))

    def values(self):
        return self._inner.values()

    def take(self, rows):
        self._check(rows)
        return self._inner.take(rows)

    def map_bool(self, fn, rows=None):
        if rows is not None:
            self._check(rows)
        return self._inner.map_bool(fn, rows)


def test_readers_are_handed_integer_row_ids(task_env, monkeypatch):
    from repro.columnar.block import ColumnChunk

    seen = []
    real_reader = ColumnChunk.reader
    monkeypatch.setattr(
        ColumnChunk, "reader", lambda chunk: _IntegerRowsReader(real_reader(chunk), seen)
    )
    # Whole-block tasks, then row slices, each gathering at matched rows.
    for sql in TASK_DIFFERENTIAL_QUERIES[0:5:2]:
        plan, broadcasts, blocks = _compile(task_env, sql)
        for task, block in zip(plan.tasks, blocks):
            execute_scan_task(task, plan, block, broadcasts)
            part = dataclasses.replace(task, row_slice=(3, block.num_rows - 5))
            execute_scan_task(part, plan, block, broadcasts)
    assert seen


@pytest.mark.parametrize(
    "spec",
    [
        LayoutSpec(sort_column="c1"),
        LayoutSpec(sort_column="url", copartition_column="c2"),
        LayoutSpec(copartition_column="c2", columns=("c1", "c2", "url", "clicks", "province")),
        LayoutSpec(sort_column="c2", index_column="c1"),
    ],
)
def test_layout_variants_agree(task_env, spec):
    # A variant's own access paths, as the leaf folds them.
    paths = [spec] + ([BTreeIndex(spec.index_column)] if spec.index_column else [])
    for sql in TASK_DIFFERENTIAL_QUERIES:
        plan, broadcasts, blocks = _compile(task_env, sql)
        results = [
            execute_scan_task(
                t, plan, apply_layout(b, spec), broadcasts, paths=paths, layout=spec
            )
            for t, b in zip(plan.tasks, blocks)
        ]
        _assert_matches_oracle(task_env, plan, results, sql)
