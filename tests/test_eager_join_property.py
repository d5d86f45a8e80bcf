"""Eager aggregation across broadcast joins ≡ join, then aggregate.

A leaf whose plan carries ``eager_join`` aggregates the fact rows per
join key and joins only those partial rows (``_aggregate_then_join``).
For every generated statement and data set, ``_finish_task`` must give
what the join-then-aggregate path gives — ``_finish_task`` on the same
plan with ``shape.eager_join`` cleared, the code every ineligible
statement runs: the same group keys and key types, COUNT / MIN / MAX /
integer SUM exactly, float SUM / AVG at ``rel_tol=1e-9`` (they add per
key, then across keys), and a field-for-field identical
``TaskExecutionReport``.  A counter
on ``hash_join`` shows which path ran.
"""

import contextlib
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar.schema import DataType, Schema
from repro.columnar.table import Catalog
from repro.engine import operators
from repro.engine.executor import _finish_task, _scan_block
from repro.planner.expressions import Frame
from repro.planner.physical import build_plan
from repro.sim.netmodel import TopologySpec
from repro.sql.analyzer import analyze_sql
from repro.storage.loader import load_block, read_table_frame, store_table
from repro.storage.router import StorageRouter
from repro.storage.systems import DistributedFS
from repro.workload.generator import skewed_join_dataset, skewed_join_queries

#: Fact-side aggregates a statement draws from, and whether each one's
#: argument is a float (its SUM / AVG then compare at a tolerance).
FACT_AGGREGATES = [
    ("COUNT(*)", False), ("SUM(T.v)", True), ("AVG(T.v)", True), ("MIN(T.v)", False),
    ("MAX(T.v)", False), ("SUM(T.w)", False), ("AVG(T.w)", True), ("MIN(T.s)", False),
    ("MAX(T.s)", False), ("COUNT(T.w)", False),
]

words = st.sampled_from(["", "a", "b", "ab", "zz"])


def _catalog(tables):
    """``tables``: name -> (schema, columns), stored in one block each."""
    fs = DistributedFS(TopologySpec(1, 1, 2).addresses())
    router = StorageRouter()
    router.register(fs, default=True)
    catalog = Catalog()
    for name, (schema, columns) in tables.items():
        store_table(name, schema, columns, router, fs, block_rows=64, catalog=catalog)
    return router, catalog


@contextlib.contextmanager
def _counting_hash_joins():
    calls = []
    real = operators.hash_join

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    operators.hash_join = counted
    try:
        yield calls
    finally:
        operators.hash_join = real


def _same(a, b, tolerant: bool) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=1e-9) if tolerant else a == b
    return type(a) is type(b) and a == b


def _assert_agree(got, want, tolerant):
    assert dataclasses.asdict(got.report) == dataclasses.asdict(want.report)
    assert got.partial.rows_scanned == want.partial.rows_scanned
    got_finals, want_finals = got.partial.finals(), want.partial.finals()
    got_keys = {key: key for key in got_finals}
    assert got_keys.keys() == want_finals.keys()
    for key, finals in want_finals.items():
        assert list(map(type, got_keys[key])) == list(map(type, key)), key
        pairs = zip(got_finals[key], finals, tolerant)
        for mine, theirs, tol in pairs:
            assert _same(mine, theirs, tol), (key, mine, theirs)


def _run_both(router, catalog, sql):
    """Every task of ``sql`` through ``_finish_task`` and through the
    join-then-aggregate path; returns the plan and hash_join call counts."""
    plan = build_plan(analyze_sql(sql, catalog))
    join_plan = dataclasses.replace(plan, shape=dataclasses.replace(plan.shape, eager_join=None))
    broadcasts = {
        bc.binding: Frame.from_columns(
            read_table_frame(router, catalog.get(bc.table_name), list(bc.columns))
        )
        for bc in plan.broadcasts
    }
    results = []
    with _counting_hash_joins() as eager_calls:
        for task in plan.tasks:
            block = load_block(router, task.block)
            report, frame = _scan_block(task, plan, block, block.block_id, (), 0.0)
            got = _finish_task(frame, task, plan, broadcasts, dataclasses.replace(report))
            results.append((frame, task, report, got))
    with _counting_hash_joins() as join_calls:
        wants = [
            _finish_task(frame, task, join_plan, broadcasts, dataclasses.replace(report))
            for frame, task, report, _got in results
        ]
    assert len(join_calls) >= len(plan.tasks)  # the reference really joined
    return plan, [(got, want) for (_f, _t, _r, got), want in zip(results, wants)], eager_calls


#: What keeps a statement from aggregating before it joins (None: nothing).
NEAR_MISSES = [None] * 6 + ["LEFT JOIN", "RIGHT JOIN", "mixed residual",
               "expression key", "fact non-key", "dimension aggregate"]


@settings(deadline=None, max_examples=200)
@given(
    data=st.data(),
    miss=st.sampled_from(NEAR_MISSES),
    two_keys=st.booleans(),
    second_dim=st.booleans(),
    residual=st.sampled_from(["none", "dimension", "two dimensions"]),
    group=st.sampled_from(["none", "label", "fact key + label"]),
    float_keys=st.sampled_from(["int", "float fact", "float dimension"]),
    distinct_dimension=st.sampled_from([True, True, False]),
    empty_scan=st.sampled_from([False, False, False, True]),
)
def test_finish_task_equals_join_then_aggregate(
    data, miss, two_keys, second_dim, residual, group, float_keys, distinct_dimension,
    empty_scan,
):
    def with_nans(values, label):
        # Row 0 stays finite: the block writer's statistics need a value.
        out = np.asarray(values, dtype=np.float64)
        out[data.draw(st.lists(st.integers(1, max(1, len(out) - 1)), max_size=3), label)
            if len(out) > 1 else []] = np.nan
        return out

    n = data.draw(st.integers(1, 40), label="fact rows")
    key = st.integers(0, 6)
    fact_k = np.asarray(data.draw(st.lists(key, min_size=n, max_size=n), label="T.k"))
    fact = {
        "k": with_nans(fact_k, "NaN T.k") if float_keys == "float fact" else fact_k,
        "j": np.asarray(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), np.int64),
        "v": with_nans(data.draw(st.lists(st.floats(0, 1e6), min_size=n, max_size=n)), "NaN T.v"),
        "w": np.asarray(data.draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n)), np.int64),
        "s": np.array(data.draw(st.lists(words, min_size=n, max_size=n)), dtype=object),
    }
    # Dimension keys may repeat and may miss fact keys; fact keys may miss
    # the dimension.  A float dimension key may be NaN.
    m = data.draw(st.integers(1, 7), label="dimension rows")
    dim_k = np.asarray(
        data.draw(st.lists(key, min_size=m, max_size=m, unique=distinct_dimension), label="D.k")
    )
    if float_keys == "float dimension":
        dim_k = with_nans(dim_k, "NaN D.k")
    dim = {
        "k": dim_k,
        "j": np.asarray(data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)), np.int64),
        "label": np.array(data.draw(st.lists(words, min_size=m, max_size=m)), dtype=object),
        "x": np.asarray(data.draw(st.lists(st.integers(0, 16), min_size=m, max_size=m)),
                        np.float64) / 16.0,
    }
    e_keys = data.draw(
        st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=distinct_dimension), label="E.e"
    )
    second = {
        "e": np.asarray(e_keys, np.int64),
        "tag": np.array(data.draw(st.lists(words, min_size=len(e_keys), max_size=len(e_keys))),
                        dtype=object),
    }
    fact_float, dim_float = float_keys == "float fact", float_keys == "float dimension"
    router, catalog = _catalog({
        "T": (Schema.of(k=DataType.FLOAT64 if fact_float else DataType.INT64, j=DataType.INT64,
                        v=DataType.FLOAT64, w=DataType.INT64, s=DataType.STRING), fact),
        "D": (Schema.of(k=DataType.FLOAT64 if dim_float else DataType.INT64, j=DataType.INT64,
                        label=DataType.STRING, x=DataType.FLOAT64), dim),
        "E": (Schema.of(e=DataType.INT64, tag=DataType.STRING), second),
    })

    kind = miss if miss in ("LEFT JOIN", "RIGHT JOIN") else "JOIN"
    on = "T.k = D.k AND T.j = D.j" if two_keys else "T.k = D.k"
    joins = f"{kind} D ON {on}" + (" JOIN E ON T.j = E.e" if second_dim else "")
    # CONTAINS is no range, so the block is scanned, not pruned.
    where = ["T.s CONTAINS 'q'"] if empty_scan else []
    if miss == "mixed residual":
        where.append("T.w > D.x * 1000")
    elif residual == "dimension":
        where.append("D.x > 0.5")
    elif residual == "two dimensions" and second_dim:
        where.append("(D.x > 0.5 OR E.tag = 'a')")
    keys = {"none": [], "label": ["D.label"], "fact key + label": ["T.k", "D.label"]}[group]
    if miss == "expression key":
        keys = ["LOWER(D.label)"]
    elif miss == "fact non-key":
        keys = ["T.w"]
    # With or without a COUNT: either gives each join key's row count.
    aggregates = data.draw(
        st.lists(st.sampled_from(FACT_AGGREGATES), min_size=1, max_size=6, unique=True),
        label="aggregates",
    ) + ([("SUM(D.x)", True)] if miss == "dimension aggregate" else [])
    select = [f"{k} AS g{i}" for i, k in enumerate(keys)]
    select += [f"{a} AS a{i}" for i, (a, _) in enumerate(aggregates)]
    sql = f"SELECT {', '.join(select)} FROM T {joins}"
    if where:
        sql += " WHERE " + " AND ".join(where)
    if keys:
        sql += " GROUP BY " + ", ".join(f"g{i}" for i in range(len(keys)))

    plan, pairs, eager_calls = _run_both(router, catalog, sql)
    tolerant = [tol for _, tol in aggregates]
    for got, want in pairs:
        _assert_agree(got, want, tolerant)

    assert (plan.shape.eager_join is not None) == (miss is None), sql
    dim_keys = list(zip(dim["k"].tolist(), dim["j"].tolist())) if two_keys else dim["k"].tolist()
    data_eligible = (
        len(set(dim_keys)) == m
        and not np.isnan(dim_k.astype(np.float64)).any()
        and (not second_dim or len(set(e_keys)) == len(e_keys))
    )
    assert (len(eager_calls) == 0) == (miss is None and data_eligible), sql


def test_workload_statements_are_all_eligible():
    fact, dim = skewed_join_dataset(3_000, seed=7)
    router, catalog = _catalog({
        "T": (Schema.of(k=DataType.INT64, v=DataType.FLOAT64, w=DataType.INT64,
                        note=DataType.STRING), fact),
        "D": (Schema.of(k=DataType.INT64, label=DataType.STRING), dim),
    })
    for sql in skewed_join_queries(40, seed=7):
        plan, pairs, eager_calls = _run_both(router, catalog, sql)
        assert plan.shape.eager_join is not None, sql
        assert not eager_calls, sql
        tolerant = [agg.func in ("SUM", "AVG") for agg in plan.analyzed.aggregates]
        for got, want in pairs:
            _assert_agree(got, want, tolerant)


@pytest.mark.parametrize(
    "sql, fact_keys",
    [
        # The sides come from the analysis, not from the ON clause's order
        # or qualifiers.
        ("SELECT D.label, COUNT(*) FROM T JOIN D ON D.k = T.k GROUP BY D.label", ("k",)),
        ("SELECT COUNT(*) FROM T JOIN E ON e = j", ("j",)),
        ("SELECT T.k, SUM(T.v) FROM T JOIN D ON T.k = D.k AND T.j = D.j "
         "JOIN E ON T.j = E.e GROUP BY T.k", ("j", "k")),
        ("SELECT COUNT(*) FROM T JOIN E ON T.j = E.e WHERE T.k = 3", ("j",)),
        # Not an aggregate; a comma join; a non-equi join; both sides one table.
        ("SELECT D.label FROM T JOIN D ON T.k = D.k", None),
        ("SELECT COUNT(*) FROM T, D WHERE T.k = D.k", None),
        ("SELECT COUNT(*) FROM T JOIN D ON T.k < D.k", None),
        ("SELECT COUNT(*) FROM T JOIN D ON T.k = T.j", None),
    ],
)
def test_eligibility_is_decided_per_statement(sql, fact_keys):
    schema = Schema.of(k=DataType.INT64, j=DataType.INT64, v=DataType.FLOAT64)
    _router, catalog = _catalog({
        "T": (schema, {"k": np.arange(4), "j": np.arange(4), "v": np.ones(4)}),
        "D": (Schema.of(k=DataType.INT64, j=DataType.INT64, label=DataType.STRING),
              {"k": np.arange(2), "j": np.arange(2), "label": np.array(["a", "b"], dtype=object)}),
        "E": (Schema.of(e=DataType.INT64), {"e": np.arange(2)}),
    })
    eager = build_plan(analyze_sql(sql, catalog)).shape.eager_join
    assert (eager.fact_keys if eager is not None else None) == fact_keys
