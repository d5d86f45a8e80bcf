"""Wall-clock microbenchmarks of the hot code paths.

Unlike the figure reproductions (whose latencies are *simulated*), these
measure the reproduction's own Python performance with pytest-benchmark's
standard timing loop: SQL front-end throughput, CNF conversion, block
encode/decode, SmartIndex probing, and single-block execution.  Useful
for catching performance regressions in the library itself.
"""

import numpy as np
import pytest

from repro.columnar.block import Block
from repro.columnar.schema import DataType, Schema
from repro.engine.executor import execute_scan_task
from repro.index.smartindex import SmartIndexManager
from repro.planner.cnf import to_cnf
from repro.planner.physical import build_plan
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from repro.columnar.table import Catalog, Table

SQL = (
    "SELECT c2, COUNT(*) AS n, SUM(clicks) AS s FROM T "
    "WHERE (c1 > 10 AND c1 <= 90) OR url CONTAINS 'site3' "
    "GROUP BY c2 HAVING COUNT(*) > 5 ORDER BY n DESC LIMIT 10"
)

N = 8192


def _catalog_and_block():
    rng = np.random.default_rng(0)
    schema = Schema.of(
        c1=DataType.INT64, c2=DataType.INT64, url=DataType.STRING, clicks=DataType.FLOAT64
    )
    columns = {
        "c1": rng.integers(0, 100, N),
        "c2": rng.integers(0, 10, N),
        "url": np.array([f"http://site{i % 7}.com/p{i % 11}" for i in range(N)], dtype=object),
        "clicks": rng.random(N),
    }
    block = Block.from_arrays("T.b0", schema, columns)
    from repro.sim.netmodel import NodeAddress
    from repro.storage import LocalFS, StorageRouter, write_block

    node = NodeAddress(0, 0, 0)
    fs = LocalFS([node])
    router = StorageRouter()
    router.register(fs, default=True)
    ref = write_block(router, fs, "/tables/T/T.b0", block, node)
    table = Table("T", schema, [ref])
    catalog = Catalog()
    catalog.register(table)
    return catalog, block


@pytest.mark.benchmark(group="micro")
def test_micro_parse(benchmark):
    result = benchmark(parse, SQL)
    assert result.limit == 10


@pytest.mark.benchmark(group="micro")
def test_micro_analyze_and_plan(benchmark):
    catalog, _block = _catalog_and_block()

    def plan():
        return build_plan(analyze(parse(SQL), catalog))

    result = benchmark(plan)
    assert result.tasks


@pytest.mark.benchmark(group="micro")
def test_micro_cnf_conversion(benchmark):
    expr = parse(SQL).where

    def convert():
        return to_cnf(expr)

    cnf = benchmark(convert)
    assert cnf.clauses


@pytest.mark.benchmark(group="micro")
def test_micro_block_serialize_round_trip(benchmark):
    _catalog, block = _catalog_and_block()

    def round_trip():
        return Block.from_bytes(block.to_bytes())

    out = benchmark(round_trip)
    assert out.num_rows == N


@pytest.mark.benchmark(group="micro")
def test_micro_scan_task_cold(benchmark):
    catalog, block = _catalog_and_block()
    plan = build_plan(analyze(parse(SQL), catalog))
    task = plan.tasks[0]

    def run():
        return execute_scan_task(task, plan, block, {})

    result = benchmark(run)
    assert result.partial is not None


@pytest.mark.benchmark(group="micro")
def test_micro_scan_task_index_covered(benchmark):
    catalog, block = _catalog_and_block()
    plan = build_plan(analyze(parse(SQL), catalog))
    task = plan.tasks[0]
    mgr = SmartIndexManager()
    execute_scan_task(task, plan, block, {}, paths=[mgr])  # warm the cache

    def run():
        return execute_scan_task(task, plan, block, {}, paths=[mgr], now=1.0)

    result = benchmark(run)
    assert result.report.index_full_cover


@pytest.mark.benchmark(group="micro")
def test_micro_index_cover_probe(benchmark):
    catalog, block = _catalog_and_block()
    plan = build_plan(analyze(parse(SQL), catalog))
    mgr = SmartIndexManager()
    execute_scan_task(plan.tasks[0], plan, block, {}, paths=[mgr])

    def probe():
        return mgr.cover(block.block_id, plan.scan_cnf.clauses, now=1.0)

    mask, missing, residuals = benchmark(probe)
    assert missing == [] and residuals == []

