"""Derived block state answers only for the contents it was derived from.

Block ids are positional (``T.b0``, ``T.b1``, ...), so a reload or an
in-place rewrite reuses them and their storage paths.  Every cache that
holds state derived from a block's bytes — SmartIndex vectors, B+ trees,
completed task results, SSD cache lines — is valid only for the
*incarnation* of the bytes it was derived from: a number minted by the
storage write that stored them.  Each case below changes a block's
contents under the same id and checks the next answer against stdlib
sqlite3 over the new contents (``tests/_oracle.py``; no statement here
names one of its ``DIVERGENCES``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro import DataType, FeisuCluster, FeisuConfig, LeafConfig, Schema
from repro.storage.loader import store_table
from repro.workload.loggen import LogIngestor, generate_log_records
from tests._oracle import oracle_for
from tests.conftest import CLICKS_SCHEMA, make_clicks_columns

COUNT = "SELECT COUNT(*) FROM T WHERE c2 > 3"
JOIN = "SELECT SUM(weight) AS w FROM T JOIN D ON T.c2 = D.c2"
DIM_SCHEMA = Schema.of(c2=DataType.INT64, weight=DataType.FLOAT64)


def _cluster(nodes: int = 3, reuse_s: float = 0.0, **leaf) -> FeisuCluster:
    return FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=1,
            nodes_per_rack=nodes,
            leaf=LeafConfig(**leaf),
            reuse_completed_window_s=reuse_s,
        )
    )


def _assert_oracle(cluster, sql, **tables):
    result = cluster.query(sql)
    with oracle_for(tables) as oracle:
        divergence = oracle(sql, result)
    assert divergence is None, (sql, divergence)
    return result


def _reload(cluster, name, schema, columns, **kw):
    cluster.catalog.drop(name)
    cluster.load_table(name, schema, columns, **kw)


@pytest.mark.parametrize(
    "leaf",
    [{}, {"enable_smartindex": False, "enable_btree": True}],
    ids=["smartindex", "btree"],
)
def test_reload_under_the_same_block_ids_answers_from_the_new_rows(leaf):
    cluster = _cluster(**leaf)
    old = make_clicks_columns(3000, seed=1)
    cluster.load_table("T", CLICKS_SCHEMA, old, block_rows=500)
    for _ in range(2):
        _assert_oracle(cluster, COUNT, T=old)
    new = make_clicks_columns(500, seed=2)
    _reload(cluster, "T", CLICKS_SCHEMA, new, block_rows=500)
    _assert_oracle(cluster, COUNT, T=new)


def test_completed_task_results_are_not_reused_across_a_reload():
    cluster = _cluster(reuse_s=3600.0, enable_smartindex=False)
    old = make_clicks_columns(3000, seed=1)
    cluster.load_table("T", CLICKS_SCHEMA, old, block_rows=500)
    _assert_oracle(cluster, COUNT, T=old)
    new = make_clicks_columns(3000, seed=2)
    _reload(cluster, "T", CLICKS_SCHEMA, new, block_rows=500)
    _assert_oracle(cluster, COUNT, T=new)


def test_completed_task_results_are_not_reused_across_a_dimension_reload():
    cluster = _cluster(reuse_s=3600.0, enable_smartindex=False)
    fact = make_clicks_columns(3000, seed=1)
    cluster.load_table("T", CLICKS_SCHEMA, fact, block_rows=500)
    for weight in (1.0, 2.0):
        dim = {"c2": np.arange(10), "weight": np.full(10, weight)}
        if "D" in cluster.catalog:
            cluster.catalog.drop("D")
        cluster.load_table("D", DIM_SCHEMA, dim, storage="storage-b")
        _assert_oracle(cluster, JOIN, T=fact, D=dim)


# -- every way a block's contents change, interleaved with queries -----------


T_QUERIES = (
    "SELECT COUNT(*) FROM T WHERE c2 > 3",
    "SELECT COUNT(*) FROM T WHERE c1 < 40 AND c2 <= 6",
    "SELECT SUM(c1) AS s FROM T WHERE c2 = 4",
    "SELECT COUNT(*) FROM T WHERE url CONTAINS 'site3'",
    "SELECT c2 AS k, COUNT(*) AS n FROM T WHERE c1 >= 50 GROUP BY k ORDER BY k",
    "SELECT SUM(weight) AS w, COUNT(*) AS n FROM T JOIN D ON T.c2 = D.c2 WHERE c1 < 60",
)
LOG_QUERIES = (
    "SELECT COUNT(*) FROM logs WHERE latency_ms > 40",
    "SELECT action AS a, COUNT(*) AS n FROM logs WHERE hour = 1 GROUP BY a ORDER BY a",
)


class _ContentsChange(RuleBasedStateMachine):
    """Load, drop + reload, rewrite in place, append and re-ingest logs on
    the same paths, and query; every answer must be the oracle's.
    Subclasses pick the one flag under test."""

    LEAF: dict = {}
    REUSE_S = 0.0

    def __init__(self):
        super().__init__()
        self.cluster = _cluster(reuse_s=self.REUSE_S, **self.LEAF)
        self.storage = "storage-a"
        self.seed = 0
        self.fact = self._load(1500)
        self.dim = None
        self.reload_dimension(1.0)
        self.ingestor = None
        self.logs = []

    def _fresh(self, rows):
        self.seed += 1
        return make_clicks_columns(rows, seed=self.seed)

    def _load(self, rows):
        columns = self._fresh(rows)
        self.cluster.load_table("T", CLICKS_SCHEMA, columns, storage=self.storage, block_rows=500)
        return columns

    @rule(rows=st.sampled_from([500, 1500]))
    def drop_and_reload(self, rows):
        self.cluster.catalog.drop("T")
        self.fact = self._load(rows)

    @rule(rows=st.sampled_from([500, 1500]))
    def rewrite_in_place(self, rows):
        self.fact = self._fresh(rows)
        system = self.cluster.storage_by_name(self.storage)
        self.cluster.catalog.replace(
            store_table("T", CLICKS_SCHEMA, self.fact, self.cluster.router, system, block_rows=500)
        )

    @rule(weight=st.sampled_from([1.0, 2.0, 3.0]))
    def reload_dimension(self, weight):
        if "D" in self.cluster.catalog:
            self.cluster.catalog.drop("D")
        self.dim = {"c2": np.arange(10), "weight": np.full(10, weight)}
        self.cluster.load_table("D", DIM_SCHEMA, self.dim, storage="storage-b")

    @rule(node=st.integers(0, 2), rows=st.integers(5, 40), restart=st.booleans())
    def ingest_logs(self, node, rows, restart):
        if restart and self.ingestor is not None:
            # A fresh ingestor restarts the block ids: same paths, new bytes.
            self.cluster.catalog.drop("logs")
            self.ingestor, self.logs = None, []
        if self.ingestor is None:
            self.ingestor = LogIngestor(self.cluster, table_name="logs")
        self.seed += 1
        records = generate_log_records(rows, node, self.seed % 3, seed=self.seed)
        self.ingestor.ingest(self.cluster.nodes[node], records)
        self.logs.extend(records)

    @rule(sql=st.sampled_from(T_QUERIES))
    def query_fact(self, sql):
        _assert_oracle(self.cluster, sql, T=self.fact, D=self.dim)

    @precondition(lambda self: self.logs)
    @rule(sql=st.sampled_from(LOG_QUERIES))
    def query_logs(self, sql):
        columns = {
            name: np.array([r[name] for r in self.logs], dtype=object if name == "action" else None)
            for name in ("latency_ms", "hour", "action")
        }
        _assert_oracle(self.cluster, sql, logs=columns)


def _machine(name, leaf=None, reuse_s=0.0):
    machine = type(name, (_ContentsChange,), {"LEAF": leaf or {}, "REUSE_S": reuse_s})
    machine.TestCase.settings = settings(
        max_examples=25,
        stateful_step_count=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    return machine.TestCase


TestDefault = _machine("Default")
TestBTree = _machine("BTree", {"enable_smartindex": False, "enable_btree": True})
TestSsdCache = _machine("SsdCache", {"enable_ssd_cache": True, "ssd_admit_preferred_only": False})
TestTaskReuse = _machine("TaskReuse", reuse_s=3600.0)
