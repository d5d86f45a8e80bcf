"""Property: ``column OP literal`` compares exactly, on every access path.

The analyzer puts each WHERE literal in its column's domain, so numpy's
comparison (the scan, every cached SmartIndex vector) and Python's exact
one (block pruning, simplification, the B+ tree and sorted replicas,
all reading ``AtomicPredicate.bounds``) agree on
every atom.  Hypothesis draws INT64 columns near 0, ±2^53 and the int64
ends, FLOAT64 columns near ±2^53 with NaN, ±inf and -0.0, and int and
float literals near the same points, ±inf and past int64, under the
default config, the B+ tree baseline, a sorted replica of the column
and a replica with an attached index on it.  Each access path alone
must also answer a row slice exactly, by declining it: its whole-block
vectors and trees say nothing of a slice's rows.

The truth is Python's row-by-row ``x OP v``, which compares int and
float exactly.  Where the column holds no NaN (sqlite reads NaN as NULL)
and sqlite reads the literal exactly (an int past int64 that no double
equals is rounded by sqlite's parser), sqlite must agree as well.  Each
``P AND Q`` answer is a subset of the ``Q`` answer.
"""

import dataclasses
import math
import operator

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DataType, FeisuCluster, FeisuConfig, LeafConfig, Schema
from repro.columnar.block import Block
from repro.engine.executor import execute_scan_task
from repro.index.btree import BTreeIndex
from repro.index.smartindex import SmartIndexManager
from repro.planner.physical import build_plan
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.storage.layouts import LayoutSpec, apply_layout
from tests._oracle import SqliteOracle

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
       ">": operator.gt, ">=": operator.ge}
#: Name -> (leaf config, the design of the only replica of every block).
CONFIGS = {
    "default": (LeafConfig(), None),
    "btree": (LeafConfig(enable_btree=True, enable_smartindex=False), None),
    "sorted": (
        LeafConfig(enable_smartindex=False, enable_layouts=True),
        LayoutSpec(sort_column="x"),
    ),
    "attached": (
        LeafConfig(enable_smartindex=False, enable_layouts=True),
        LayoutSpec(index_column="x"),
    ),
}
#: Name -> a fresh access path, as the leaf folds it.
PATHS = {
    "smartindex": SmartIndexManager,
    "btree": BTreeIndex,
    "sorted": lambda: LayoutSpec(sort_column="x"),
    "attached": lambda: BTreeIndex("x"),
}

#: Where a column's cells and the literals cluster, so that they collide.
INT_BASES = [0, 2**53, -(2**53), INT64_MAX, INT64_MIN]
FLOAT_BASES = [0.0, 2.0**53, -(2.0**53)]
#: Far literals: ±inf, past int64, past every double.
FAR = [math.inf, -math.inf, 2**64, -(2**64), 2**63, 10**400, -(10**400), 2.5, -0.0]
_near = st.integers(-2, 2)


@st.composite
def literals(draw, base):
    """An int or float literal near ``base``, or a far one."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(FAR))
    value = int(base) + draw(_near)
    return float(value) if draw(st.booleans()) else value


def _sql_literal(value) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "1e999" if value > 0 else "-1e999"
    return repr(value)


def _sqlite_exact(value) -> bool:
    """Does sqlite's parser read ``value`` as written?"""
    if isinstance(value, float) or INT64_MIN <= value <= INT64_MAX:
        return True
    try:
        return float(value) == value
    except OverflowError:
        return False


def _truth(x: np.ndarray, drawn) -> dict:
    """WHERE text -> ids of the rows it selects, compared exactly."""
    cells = x.tolist()
    truth = {}
    for op, value in drawn:
        where = f"x {op} {_sql_literal(value)}"
        truth[where] = [i for i, cell in enumerate(cells) if OPS[op](cell, value)]
    wheres = list(truth)
    for p in wheres:
        for q in wheres:
            if p != q:
                truth[f"{p} AND {q}"] = sorted(set(truth[p]) & set(truth[q]))
    return truth


def _cluster(leaf: LeafConfig, spec, dtype: DataType, x: np.ndarray) -> FeisuCluster:
    cluster = FeisuCluster(
        FeisuConfig(datacenters=1, racks_per_datacenter=1, nodes_per_rack=1, leaf=leaf)
    )
    cluster.load_table(
        "T", Schema.of(id=DataType.INT64, x=dtype), {"id": np.arange(len(x)), "x": x},
        storage="storage-a", block_rows=3,
    )
    if spec is not None:  # the variant on the only replica of every block
        system = cluster.storage_by_name("storage-a")
        for ref in cluster.catalog.get("T").blocks:
            inner = cluster.router.resolve(ref.path)[1]
            (node,) = system.locations(inner)
            rewrite = cluster.layouts._rewrite(system, inner, node, spec)
            assert cluster.sim.run_until_complete(cluster.sim.process(rewrite))
    return cluster


@st.composite
def cases(draw):
    if draw(st.booleans()):
        dtype, base = DataType.INT64, draw(st.sampled_from(INT_BASES))
        cells = st.builds(lambda d: min(max(base + d, INT64_MIN), INT64_MAX), _near)
        x = np.array(draw(st.lists(cells, min_size=1, max_size=7)), dtype=np.int64)
    else:
        dtype, base = DataType.FLOAT64, draw(st.sampled_from(FLOAT_BASES))
        cells = st.one_of(
            st.builds(lambda d: base + d, _near),
            st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
        )
        x = np.array(draw(st.lists(cells, min_size=1, max_size=7)), dtype=np.float64)
    ops = st.sampled_from(sorted(OPS))
    return dtype, x, draw(st.lists(st.tuples(ops, literals(base)), min_size=2, max_size=3))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_comparisons_are_exact_on_every_access_path(case):
    dtype, x, drawn = case
    cells = x.tolist()
    truth = _truth(x, drawn)
    wheres = list(dict.fromkeys(f"x {op} {_sql_literal(value)}" for op, value in drawn))
    conjunctions = [(p, q) for p in wheres for q in wheres if p != q]
    oracle = None if np.isnan(x).any() else SqliteOracle({"T": {"id": range(len(x)), "x": cells}})
    try:
        for name, (leaf, spec) in CONFIGS.items():
            cluster = _cluster(leaf, spec, dtype, x)
            for _ in range(2):  # the second pass reads what the first one cached
                answers = {}
                for where, want in truth.items():
                    sql = f"SELECT id FROM T WHERE {where}"
                    result = cluster.query(sql)
                    answers[where] = sorted(row[0] for row in result.rows())
                    assert answers[where] == want, (name, sql, cells)
                    if oracle is not None and all(_sqlite_exact(v) for _, v in drawn):
                        assert oracle(sql, result) is None, (name, sql, cells)
                for p, q in conjunctions:
                    assert set(answers[f"{p} AND {q}"]) <= set(answers[q])
    finally:
        if oracle is not None:
            oracle.close()


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
def test_each_access_path_alone_answers_blocks_and_row_slices_exactly(case):
    """Each path is folded alone into tasks run directly: cold and warm
    on whole blocks, then on row slices of the blocks it has answered."""
    dtype, x, drawn = case
    cluster = _cluster(LeafConfig(enable_smartindex=False), None, dtype, x)
    for where, want in _truth(x, drawn).items():
        plan = build_plan(analyze(parse(f"SELECT id FROM T WHERE {where}"), cluster.catalog))
        blocks = [_stored(cluster, task.block) for task in plan.tasks]
        for name, make in PATHS.items():
            path = make()
            # A sorted design's whole blocks are its variant; slices read base rows.
            served = [apply_layout(b, path) for b in blocks] if name == "sorted" else blocks
            for now in (1.0, 2.0):
                whole = [
                    execute_scan_task(task, plan, block, paths=[path], now=now)
                    for task, block in zip(plan.tasks, served)
                ]
                assert _ids(whole) == want, (name, where, x.tolist())
            before = _probe_counts(path)
            sliced = [
                execute_scan_task(
                    dataclasses.replace(task, row_slice=(lo, lo + 1)), plan, block,
                    paths=[path], now=3.0,
                )
                for task, block in zip(plan.tasks, blocks)
                for lo in range(block.num_rows)
            ]
            assert _ids(sliced) == want, (name, where, x.tolist())
            assert _probe_counts(path) == before, name  # every slice was declined


def _stored(cluster: FeisuCluster, ref) -> Block:
    system, inner = cluster.router.resolve(ref.path)
    return Block.from_bytes(system.read(inner))


def _ids(results) -> list:
    return sorted(i for r in results for i in r.frame.columns["id"].tolist())


def _probe_counts(path):
    """What a probe would have moved: the cache's lookups and entries,
    or the trees built."""
    if isinstance(path, SmartIndexManager):
        return path.stats.lookups, path.stats.ttl_sweeps, path.entry_count
    if isinstance(path, BTreeIndex):
        return path.builds
    return None
