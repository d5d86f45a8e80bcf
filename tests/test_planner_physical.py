"""Physical planning: tasks, pruning, predicate split, projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.schema import DataType, Schema
from repro.columnar.table import Catalog
from repro.errors import PlanError
from repro.planner.cnf import AtomicPredicate
from repro.planner.physical import _range_excludes, build_plan, equi_join_keys
from repro.sim.netmodel import TopologySpec
from repro.sql.analyzer import analyze
from repro.sql.ast import BinaryOperator
from repro.sql.parser import parse, parse_expression
from repro.storage.loader import store_table
from repro.storage.router import StorageRouter
from repro.storage.systems import DistributedFS


@pytest.fixture(scope="module")
def env():
    nodes = TopologySpec(1, 2, 4).addresses()
    hdfs = DistributedFS(nodes)
    router = StorageRouter()
    router.register(hdfs, default=True)
    catalog = Catalog()
    n = 4000
    # c_sorted is monotonically increasing: block ranges become disjoint,
    # which makes range pruning effective.
    columns = {
        "c_sorted": np.arange(n, dtype=np.int64),
        "c2": np.tile(np.arange(10, dtype=np.int64), n // 10),
        "url": np.array([f"u{i % 5}" for i in range(n)], dtype=object),
        "val": np.linspace(0, 1, n),
    }
    schema = Schema.of(
        c_sorted=DataType.INT64, c2=DataType.INT64, url=DataType.STRING, val=DataType.FLOAT64
    )
    store_table("T", schema, columns, router, hdfs, block_rows=1000, catalog=catalog)
    dim = {"c2": np.arange(10, dtype=np.int64), "label": np.array([f"g{i}" for i in range(10)], dtype=object)}
    store_table(
        "D", Schema.of(c2=DataType.INT64, label=DataType.STRING), dim, router, hdfs,
        catalog=catalog,
    )
    return catalog


def _plan(catalog, sql):
    return build_plan(analyze(parse(sql), catalog))


def test_one_task_per_block(env):
    plan = _plan(env, "SELECT COUNT(*) FROM T")
    assert len(plan.tasks) == 4
    assert plan.is_aggregate and not plan.has_joins


def test_range_pruning_on_sorted_column(env):
    plan = _plan(env, "SELECT COUNT(*) FROM T WHERE c_sorted < 500")
    assert len(plan.tasks) == 1
    assert plan.pruned_blocks == 3


def test_equality_pruning(env):
    plan = _plan(env, "SELECT COUNT(*) FROM T WHERE c_sorted = 2500")
    assert len(plan.tasks) == 1


def test_no_pruning_on_unsorted_column(env):
    plan = _plan(env, "SELECT COUNT(*) FROM T WHERE c2 = 3")
    assert len(plan.tasks) == 4  # every block spans 0..9


def test_ne_and_contains_never_pruned(env):
    assert len(_plan(env, "SELECT COUNT(*) FROM T WHERE c_sorted != 1").tasks) == 4
    assert len(_plan(env, "SELECT COUNT(*) FROM T WHERE url CONTAINS 'u1'").tasks) == 4


_GRID = [-float("inf"), -3.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0, 2.5, 3.0, float("inf")]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(
        [BinaryOperator.EQ, BinaryOperator.NE, BinaryOperator.LT,
         BinaryOperator.LE, BinaryOperator.GT, BinaryOperator.GE]
    ),
    st.sampled_from(_GRID + [2, float("nan")]),
    st.sampled_from(_GRID + [1, float("nan")]),
    st.sampled_from(_GRID + [1, float("nan")]),
)
def test_property_range_excludes_only_blocks_with_no_match(op, value, lo, hi):
    """Pruning is sound: when a block's ``[lo, hi]`` is excluded, no value
    of the grid inside it satisfies the atom.  A NaN bound excludes
    nothing: neither a NaN literal nor the NaN range a float chunk with a
    NaN row records (its min and max are both NaN)."""
    atom = AtomicPredicate("c", op, value)
    if lo != lo or hi != hi:
        lo = hi = float("nan")
    elif hi < lo:
        lo, hi = hi, lo
    excluded = _range_excludes(atom, lo, hi)
    if value != value or lo != lo:
        assert not excluded
    if excluded:
        inside = np.array([x for x in _GRID + [lo, hi] if lo <= x <= hi])
        assert not atom.evaluate(inside).any()


def test_scan_columns_include_predicates_and_payload(env):
    plan = _plan(env, "SELECT SUM(val) FROM T WHERE c2 > 3")
    assert set(plan.tasks[0].columns) == {"c2", "val"}
    assert plan.payload_columns == ("val",)


def test_payload_excludes_filter_only_columns(env):
    plan = _plan(env, "SELECT COUNT(*) FROM T WHERE c2 > 3 AND url CONTAINS 'u1'")
    assert plan.payload_columns == ()
    assert set(plan.tasks[0].columns) == {"c2", "url"}


def test_scan_cnf_split_with_join(env):
    plan = _plan(
        env,
        "SELECT label, COUNT(*) FROM T JOIN D ON T.c2 = D.c2 "
        "WHERE val > 0.5 AND label != 'g3' GROUP BY label",
    )
    # val > 0.5 is a base-table scan predicate; label != 'g3' crosses tables.
    assert plan.scan_cnf.predicate_keys() == ["val > 0.5"]
    assert plan.post_filter is not None
    assert len(plan.broadcasts) == 1
    assert plan.broadcasts[0].binding == "D"
    assert "label" in plan.broadcasts[0].columns


def test_comma_from_becomes_cross_broadcast(env):
    plan = _plan(env, "SELECT T.c2 FROM T, D WHERE T.c2 = D.c2")
    assert len(plan.broadcasts) == 1
    assert plan.broadcasts[0].binding == "D"
    from repro.sql.ast import JoinKind

    assert plan.broadcasts[0].kind is JoinKind.CROSS
    # the old-style join predicate lands in the post-join residual
    assert plan.post_filter is not None


def test_estimated_scan_bytes_positive(env):
    plan = _plan(env, "SELECT val FROM T")
    assert plan.estimated_scan_bytes() > 0


def test_or_clause_stays_indexable_unit(env):
    plan = _plan(env, "SELECT COUNT(*) FROM T WHERE c2 > 8 OR c2 < 1")
    assert len(plan.scan_cnf.clauses) == 1
    assert plan.scan_cnf.clauses[0].is_indexable


def test_residual_where_goes_to_post_filter(env):
    plan = _plan(env, "SELECT COUNT(*) FROM T WHERE c2 + 1 > 5")
    assert plan.scan_cnf.clauses == []
    assert plan.post_filter is not None
    # the residual's column must still be read
    assert "c2" in plan.tasks[0].columns


def test_equi_join_keys_extraction():
    cond = parse_expression("t.k = u.k AND t.j = u.j")
    pairs = equi_join_keys(cond)
    assert len(pairs) == 2
    assert all(p[0].table == "t" and p[1].table == "u" for p in pairs)
    # Pairs come as written: which side is which is the planner's decision.
    [(a, b)] = equi_join_keys(parse_expression("u.k = t.k"))
    assert (a.table, b.table) == ("u", "t")


def test_equi_join_keys_rejects_non_equi():
    assert equi_join_keys(parse_expression("t.k > u.k")) is None
    assert equi_join_keys(parse_expression("t.k = 5")) is None
    assert equi_join_keys(parse_expression("t.k = u.k AND t.j > 1")) is None
