"""The planner decides a broadcast's join keys once; the leaf joins on them.

``BroadcastTable.keys`` is derived from the analysis's resolutions, so an
ON condition binds the columns it names — whatever their qualifiers,
their order, or the names the dimension happens to share with the fact
table — and every task of the statement joins on those columns.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
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


def test_same_side_on_binds_the_fact_columns_it_names():
    """``T.a = T.b`` compares two fact columns; the dimension's own ``a``
    takes no part, so every fact row with a = b meets every dimension row."""
    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=1, nodes_per_rack=4))
    cluster.load_table(
        "T", Schema.of(a=DataType.INT64, b=DataType.INT64),
        {"a": np.array([1, 2, 3, 4]), "b": np.array([1, 5, 3, 9])},
        storage="storage-a", block_rows=2,
    )
    cluster.load_table(
        "D", Schema.of(a=DataType.INT64, label=DataType.STRING),
        {"a": np.array([5, 9, 7]), "label": np.array(["x", "y", "z"], dtype=object)},
        storage="storage-b",
    )
    assert cluster.query("SELECT COUNT(*) FROM T JOIN D ON T.a = T.b").rows() == [(6,)]


@pytest.fixture(scope="module")
def stored():
    fs = DistributedFS(TopologySpec(1, 1, 2).addresses())
    router = StorageRouter()
    router.register(fs, default=True)
    catalog = Catalog()
    tables = {
        "T": (Schema.of(id=DataType.INT64, tk=DataType.INT64, v=DataType.INT64),
              {"id": np.arange(12), "tk": np.arange(12) % 5, "v": np.arange(12) * 3}),
        "D": (Schema.of(a=DataType.INT64, dk=DataType.INT64, label=DataType.STRING),
              {"a": np.arange(4), "dk": np.array([0, 1, 2, 8]),
               "label": np.array(["p", "q", "r", "s"], dtype=object)}),
        "E": (Schema.of(e=DataType.INT64, tag=DataType.STRING),
              {"e": np.arange(3), "tag": np.array(["x", "y", "z"], dtype=object)}),
        "L": (Schema.of(**{"request.page": DataType.STRING, "hour": DataType.INT64}),
              {"request.page": np.array(["/a", "/b"], dtype=object), "hour": np.arange(2)}),
        "P": (Schema.of(page=DataType.STRING), {"page": np.array(["/a"], dtype=object)}),
    }
    for name, (schema, columns) in tables.items():
        store_table(name, schema, columns, router, fs, block_rows=4, catalog=catalog)
    return router, catalog


@pytest.mark.parametrize(
    "sql, keys",
    [
        ("SELECT id FROM T JOIN D ON T.tk = D.dk", [(("T.tk", "D.dk"),)]),
        # Sides come from the analysis, not from the order or the qualifiers.
        ("SELECT id FROM T JOIN D ON dk = tk", [(("T.tk", "D.dk"),)]),
        ("SELECT id FROM T JOIN D ON D.dk = T.tk AND T.v = D.a",
         [(("T.v", "D.a"), ("T.tk", "D.dk"))]),
        # A later broadcast may probe with an earlier one's column.
        ("SELECT id FROM T JOIN D ON T.tk = D.dk JOIN E ON e = D.a",
         [(("T.tk", "D.dk"),), (("D.a", "E.e"),)]),
        # Nested-JSON fields keep their dots.
        ("SELECT hour FROM L JOIN P ON request.page = P.page",
         [(("L.request.page", "P.page"),)]),
        # No keys: a filtered cross product.
        ("SELECT id FROM T JOIN D ON T.tk = T.v", [None]),
        ("SELECT id FROM T JOIN D ON T.tk = D.dk AND T.v > 3", [None]),
        ("SELECT id FROM T JOIN D ON T.tk = 1", [None]),
        ("SELECT id FROM T JOIN D ON T.tk < D.dk", [None]),
        ("SELECT id FROM T, D WHERE T.tk = D.dk", [None]),
        # The ON of D names E, which is joined only after it.
        ("SELECT id FROM T JOIN D ON D.a = E.e JOIN E ON T.tk = E.e",
         [None, (("T.tk", "E.e"),)]),
    ],
)
def test_broadcast_keys(stored, sql, keys):
    plan = build_plan(analyze_sql(sql, stored[1]))
    assert [bc.keys for bc in plan.broadcasts] == keys


@contextlib.contextmanager
def _counting(*names):
    calls = {name: [] for name in names}
    real = {name: getattr(operators, name) for name in names}

    def counter(name):
        def counted(*args, **kwargs):
            calls[name].append(1)
            return real[name](*args, **kwargs)
        return counted

    for name in names:
        setattr(operators, name, counter(name))
    try:
        yield calls
    finally:
        for name in names:
            setattr(operators, name, real[name])


@pytest.mark.parametrize("on", ["tk = dk", "dk = tk", "D.dk = T.tk"])
def test_every_order_of_an_equi_on_runs_the_hash_join(stored, on):
    router, catalog = stored
    plan = build_plan(analyze_sql(f"SELECT id, label FROM T JOIN D ON {on}", catalog))
    dim = Frame.from_columns(
        read_table_frame(router, catalog.get("D"), list(plan.broadcasts[0].columns))
    )
    rows = []
    with _counting("hash_join", "cross_join") as calls:
        for task in plan.tasks:
            block = load_block(router, task.block)
            report, frame = _scan_block(task, plan, block, block.block_id, (), 0.0)
            result = _finish_task(frame, task, plan, {"D": dim}, dataclasses.replace(report))
            columns = result.frame.columns
            rows.extend(zip(columns["T.id"].tolist(), columns["D.label"].tolist()))
    assert len(plan.tasks) == 3
    assert len(calls["hash_join"]) == len(plan.tasks)
    assert not calls["cross_join"]
    assert sorted(rows) == [(i, "pqr"[i % 5]) for i in range(12) if i % 5 < 3]
