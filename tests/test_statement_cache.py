"""The statement cache: ``analyze_sql`` plus the plan shape kept on the
statement.

A statement is parsed, analyzed and given its plan shape once per text per
catalog; every execution still instantiates tasks from the table's
current blocks and runs every access check.  These tests pin that a
cached plan is the plan a fresh ``analyze(parse())`` + ``build_plan``
gives, digests included, and that every way a table can change under a
cached statement is seen.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.client import FeisuClient
from repro.cluster.jobs import task_signature
from repro.engine.executor import execute_scan_task, finalize
from repro.errors import AccessDeniedError, AnalysisError
from repro.gateway import GatewayConfig, QueryStatus
from repro.planner.physical import build_plan, plan_fingerprint
from repro.sql.analyzer import analyze, analyze_sql
from repro.sql.parser import parse
from repro.storage.loader import load_block
from tests.test_cluster_node import _SCHEMA, _rewrite_table, _rows
from tests.test_integration_differential import (
    TASK_DIFFERENTIAL_QUERIES,
    _random_join_query,
    _random_query,
    task_env,  # noqa: F401 - fixture
)


def _corpus():
    rng = random.Random(7)
    return (
        list(TASK_DIFFERENTIAL_QUERIES)
        + [_random_query(rng) for _ in range(24)]
        + [_random_join_query(rng) for _ in range(8)]
    )


def _fingerprint_as_recorded(plan) -> str:
    """``plan_fingerprint`` as it was computed before the plan shape
    existed: one digest stream over the plan's fields."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr(tuple(sorted(str(c) for c in plan.scan_cnf.clauses))).encode())
    h.update(str(plan.post_filter).encode())
    for bc in plan.broadcasts:
        h.update(f"|{bc.binding}:{bc.table_name}:{bc.kind.value}".encode())
    for t in plan.tasks:
        h.update(f"|{t.block.block_id}:{','.join(t.columns)}".encode())
    return h.hexdigest()


def _rows_of(router, plan):
    results = [
        execute_scan_task(t, plan, load_block(router, t.block), _broadcasts(router, plan))
        for t in plan.tasks
    ]
    return repr(finalize(plan, results).rows())  # repr: NaN equals itself


def _broadcasts(router, plan):
    from repro.planner.expressions import Frame
    from repro.storage.loader import read_table_frame

    return {
        bc.binding: Frame.from_columns(
            read_table_frame(router, plan.analyzed.tables[bc.binding], list(bc.columns))
        )
        for bc in plan.broadcasts
    }


@pytest.mark.parametrize("sql", _corpus())
def test_cached_plan_is_the_fresh_plan(task_env, sql):  # noqa: F811
    router, catalog, _oracle = task_env
    fresh = build_plan(analyze(parse(sql), catalog))
    runs = [build_plan(analyze_sql(sql, catalog)) for _ in range(2)]
    assert runs[0].analyzed is runs[1].analyzed  # the second run was a hit
    expected_rows = _rows_of(router, fresh)
    for plan in runs:
        assert plan_fingerprint(plan) == plan_fingerprint(fresh) == _fingerprint_as_recorded(fresh)
        assert [task_signature(plan, t) for t in plan.tasks] == [
            task_signature(fresh, t) for t in fresh.tasks
        ]
        assert plan.pruned_blocks == fresh.pruned_blocks
        assert _rows_of(router, plan) == expected_rows


def test_cluster_reruns_answer_as_a_fresh_plan(small_cluster):
    for sql in _corpus()[:12]:
        fresh = build_plan(analyze(parse(sql), small_cluster.catalog))
        jobs = [small_cluster.query_job(sql) for _ in range(2)]
        assert jobs[0].plan.analyzed is jobs[1].plan.analyzed
        for job in jobs:
            assert plan_fingerprint(job.plan) == plan_fingerprint(fresh)
        assert repr(jobs[0].result.rows()) == repr(jobs[1].result.rows())


# -- every way a table changes under a cached statement -------------------------


def _gateway_cluster(total_slots=1):
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=4,
            gateway=GatewayConfig(total_slots=total_slots),
        )
    )
    cluster.load_table("T", _SCHEMA, _rows(3000, 7), storage="storage-a", block_rows=500)
    cluster.create_user("u", admin=True)
    return cluster


def _queue_behind_a_running_query(cluster, sql):
    session = cluster.gateway.open_session("u")
    running = session.submit("SELECT SUM(b) AS s FROM T")
    queued = session.submit(sql)
    assert running.status is QueryStatus.RUNNING and queued.status is QueryStatus.QUEUED
    return queued


def test_reload_with_another_schema_fails_a_queued_query():
    cluster = _gateway_cluster()
    queued = _queue_behind_a_running_query(cluster, "SELECT COUNT(*) AS n, MAX(a) AS m FROM T")
    cluster.catalog.drop("T")
    cluster.load_table(
        "T", Schema.of(z=DataType.INT64), {"z": np.arange(10)}, storage="storage-a"
    )
    cluster.gateway.run_until_drained()
    assert queued.status is QueryStatus.FAILED
    assert isinstance(queued.error, AnalysisError)


def test_reload_with_another_schema_answers_a_queued_query_from_the_new_table():
    cluster = _gateway_cluster()
    queued = _queue_behind_a_running_query(cluster, "SELECT COUNT(*) AS n, MAX(a) AS m FROM T")
    cluster.catalog.drop("T")
    schema = Schema.of(a=DataType.INT64, c=DataType.STRING)
    columns = {"a": np.arange(40), "c": np.array(["x"] * 40, dtype=object)}
    cluster.load_table("T", schema, columns, storage="storage-a", block_rows=16)
    cluster.gateway.run_until_drained()
    assert queued.status is QueryStatus.SUCCEEDED
    assert queued.result().rows() == [(40, 39)]
    assert queued.job.plan.analyzed.tables["T"] is cluster.catalog.get("T")


def test_replaced_table_is_a_new_statement():
    cluster = _gateway_cluster()
    sql = "SELECT COUNT(*) FROM T WHERE a = 7"
    assert cluster.query(sql).rows() == [(3000,)]
    before = analyze_sql(sql, cluster.catalog)
    _rewrite_table(cluster, _rows(3000, 8))
    assert cluster.query(sql).rows() == [(0,)]
    after = analyze_sql(sql, cluster.catalog)
    assert after is not before and after.tables["T"] is cluster.catalog.get("T")


def test_appended_log_blocks_are_planned_on_a_cache_hit():
    from repro.workload.loggen import LogIngestor, generate_log_records

    cluster = _gateway_cluster()
    ingestor = LogIngestor(cluster, table_name="logs")
    ingestor.ingest(cluster.nodes[0], generate_log_records(40, 0, 0, 1))
    sql = "SELECT COUNT(*) FROM logs"
    first = cluster.query_job(sql)
    ingestor.ingest(cluster.nodes[1], generate_log_records(25, 1, 0, 1))
    second = cluster.query_job(sql)
    assert second.plan.analyzed is first.plan.analyzed
    assert (first.result.rows(), second.result.rows()) == ([(40,)], [(65,)])
    assert (len(first.plan.tasks), len(second.plan.tasks)) == (1, 2)
    # A contradiction prunes every block the table has *now*.
    never = "SELECT COUNT(*) FROM logs WHERE hour > 5 AND hour < 2"
    assert cluster.query_job(never).plan.pruned_blocks == 2
    ingestor.ingest(cluster.nodes[2], generate_log_records(10, 2, 0, 1))
    plan = cluster.query_job(never).plan
    assert plan.tasks == [] and plan.pruned_blocks == 3


def test_revoked_read_right_denies_a_cached_statement():
    cluster = _gateway_cluster()
    cluster.create_user("r", domains=["*"])
    cluster.acl.grant("r", "T")
    client = FeisuClient(cluster, "r")
    session = cluster.gateway.open_session("r")
    sql = "SELECT COUNT(*) FROM T"
    assert client.query(sql).rows() == [(3000,)]
    assert session.query(sql).rows() == [(3000,)]
    cluster.acl.revoke("r", "T")
    with pytest.raises(AccessDeniedError):
        client.query(sql)
    with pytest.raises(AccessDeniedError):
        session.submit(sql)
    with pytest.raises(AccessDeniedError):
        cluster.submit(sql, user="r")
    assert sql in cluster.catalog.statements  # still cached; still denied


def test_concurrent_jobs_of_one_statement_get_their_own_tasks():
    cluster = _gateway_cluster(total_slots=2)
    session = cluster.gateway.open_session("u")
    sql = "SELECT SUM(b) AS s FROM T WHERE a = 7"
    handles = [session.submit(sql) for _ in range(2)]
    assert all(h.status is QueryStatus.RUNNING for h in handles)
    cluster.gateway.run_until_drained()
    plans = [h.job.plan for h in handles]
    assert plans[0].analyzed is plans[1].analyzed
    assert plans[0].plan_id != plans[1].plan_id
    ids = [t.task_id for plan in plans for t in plan.tasks]
    assert len(ids) == len(set(ids)) == 12
    assert handles[0].result().rows() == handles[1].result().rows()
