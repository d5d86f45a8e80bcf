"""Unit tests for task signatures and job bookkeeping."""

import dataclasses
import random

import numpy as np
import pytest

from repro.cluster.jobs import JobOptions, new_job, task_signature
from repro.columnar.schema import DataType, Schema
from repro.columnar.table import Catalog
from repro.planner.physical import build_plan
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.storage.loader import store_table
from repro.storage.router import StorageRouter
from repro.storage.systems import DistributedFS
from repro.sim.netmodel import TopologySpec


@pytest.fixture(scope="module")
def catalog():
    nodes = TopologySpec(1, 1, 4).addresses()
    hdfs = DistributedFS(nodes)
    router = StorageRouter()
    router.register(hdfs, default=True)
    cat = Catalog()
    rng = np.random.default_rng(1)
    store_table(
        "T",
        Schema.of(a=DataType.INT64, b=DataType.FLOAT64),
        {"a": rng.integers(0, 10, 1000), "b": rng.random(1000)},
        router,
        hdfs,
        block_rows=500,
        catalog=cat,
    )
    return cat


def _plan(catalog, sql):
    return build_plan(analyze(parse(sql), catalog))


def test_identical_queries_same_signatures(catalog):
    p1 = _plan(catalog, "SELECT COUNT(*) FROM T WHERE a > 3")
    p2 = _plan(catalog, "SELECT COUNT(*) FROM T WHERE a > 3")
    sigs1 = [task_signature(p1, t) for t in p1.tasks]
    sigs2 = [task_signature(p2, t) for t in p2.tasks]
    assert sigs1 == sigs2  # despite distinct plan/task ids


def test_textual_variants_share_signatures(catalog):
    # canonical CNF keys make `3 < a` identical to `a > 3`
    p1 = _plan(catalog, "SELECT COUNT(*) FROM T WHERE a > 3")
    p2 = _plan(catalog, "SELECT COUNT(*) FROM T WHERE 3 < a")
    assert [task_signature(p1, t) for t in p1.tasks] == [
        task_signature(p2, t) for t in p2.tasks
    ]


def test_different_predicates_different_signatures(catalog):
    p1 = _plan(catalog, "SELECT COUNT(*) FROM T WHERE a > 3")
    p2 = _plan(catalog, "SELECT COUNT(*) FROM T WHERE a > 4")
    assert task_signature(p1, p1.tasks[0]) != task_signature(p2, p2.tasks[0])


def test_different_aggregates_different_signatures(catalog):
    p1 = _plan(catalog, "SELECT COUNT(*) FROM T WHERE a > 3")
    p2 = _plan(catalog, "SELECT SUM(b) FROM T WHERE a > 3")
    assert task_signature(p1, p1.tasks[0]) != task_signature(p2, p2.tasks[0])


def test_projection_vs_aggregate_different_signatures(catalog):
    p1 = _plan(catalog, "SELECT a FROM T WHERE a > 3")
    p2 = _plan(catalog, "SELECT COUNT(*) FROM T WHERE a > 3")
    assert task_signature(p1, p1.tasks[0]) != task_signature(p2, p2.tasks[0])


def test_columns_and_path_distinguish_tasks(catalog):
    plan = _plan(catalog, "SELECT COUNT(*) FROM T WHERE a > 3")
    task, other_block = plan.tasks[0], plan.tasks[1]
    whole = task_signature(plan, task)
    assert task_signature(plan, dataclasses.replace(task, columns=("a", "b"))) != whole
    assert task_signature(plan, other_block) != whole
    rewritten = dataclasses.replace(task.block, incarnation=task.block.incarnation + 1)
    assert task_signature(plan, dataclasses.replace(task, block=rewritten)) != whole


def _reference_signature(plan, task):
    """``task_signature`` rebuilt whole on every call, the way it was
    before S57 hoisted the plan half, plus the incarnations of the
    scanned block and of the broadcast tables' blocks: the reference
    formula."""
    analyzed = plan.analyzed
    agg_sig = (
        tuple(str(k) for k in analyzed.group_keys),
        tuple((a.func, str(a.argument)) for a in analyzed.aggregates),
    )
    broadcast_sig = tuple(
        (bc.binding, bc.table_name, bc.columns, bc.kind.value, str(bc.condition))
        for bc in plan.broadcasts
    )
    return (
        task.block.path,
        task.block.incarnation,
        tuple(sorted(str(c) for c in plan.scan_cnf.clauses)),
        task.columns,
        plan.is_aggregate,
        agg_sig,
        str(plan.post_filter),
        broadcast_sig,
        tuple(
            tuple(ref.incarnation for ref in analyzed.tables[bc.binding].blocks)
            for bc in plan.broadcasts
        ),
    )


def test_signature_equals_the_reference_formula_over_the_corpus(small_cluster):
    """Element for element, over the differential corpus."""
    from tests.test_integration_differential import (
        DIFFERENTIAL_QUERIES,
        TASK_DIFFERENTIAL_QUERIES,
        _random_join_query,
        _random_query,
    )

    rng = random.Random(57)
    corpus = (
        DIFFERENTIAL_QUERIES
        + TASK_DIFFERENTIAL_QUERIES
        + [_random_query(rng) for _ in range(100)]
        + [_random_join_query(rng) for _ in range(30)]
    )
    checked = 0
    for sql in corpus:
        plan = _plan(small_cluster.catalog, sql)
        for task in plan.tasks:
            got, want = task_signature(plan, task), _reference_signature(plan, task)
            assert got == want, sql
            assert [type(x) for x in got] == [type(x) for x in want], sql
            checked += 1
    assert checked > 500


def test_new_job_snapshot(catalog):
    plan = _plan(catalog, "SELECT COUNT(*) FROM T WHERE a > 3")
    job = new_job("u", "SELECT ...", plan, JobOptions(), now=5.0)
    assert job.submitted_at == 5.0
    assert job.stats.tasks_total == len(plan.tasks)
    assert job.response_time_s == 0.0  # not finished yet
