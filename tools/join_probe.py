#!/usr/bin/env python
"""Join probe: what one ``join_groupby`` leaf task costs after its scan.

Builds the ``join_groupby`` tables and statements of ``benchmarks/e2e``
at ``--seed`` (48 000 fact rows in 6 000-row blocks, an 8-row dimension,
40 statements), runs ``_scan_block`` once per task, and
then measures what follows on the gathered frame:

* ``_finish_task`` itself, which aggregates per join key before joining
  wherever the plan and the dimension allow it (S67);
* the join-then-aggregate path, which is ``_finish_task`` on the same
  plan with ``shape.eager_join`` cleared: the code every ineligible
  statement runs;
* ``_finish_task`` on the statements rewritten into the shapes the eager
  path declines: a LEFT JOIN, an ON with a conjunct that is no column
  equality, a non-equi ON, a comma join and a join with no aggregate.

It asserts that the first two give the same groups, key types, finals
(floats at ``rel_tol=1e-9``) and ``TaskExecutionReport``.  Per shape it
prints the interpreter calls per task (an exact cProfile count) and the
microseconds per task.  Printed, not gated: wall microseconds depend on
the box.

    python tools/join_probe.py [--seed 7] [--repeat 20]
"""

import argparse
import cProfile
import dataclasses
import math
import os
import pstats
import re
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.columnar.schema import DataType, Schema  # noqa: E402
from repro.columnar.table import Catalog  # noqa: E402
from repro.engine.executor import _finish_task, _scan_block  # noqa: E402
from repro.planner.expressions import Frame  # noqa: E402
from repro.planner.physical import build_plan  # noqa: E402
from repro.sim.netmodel import TopologySpec  # noqa: E402
from repro.sql.analyzer import analyze_sql  # noqa: E402
from repro.storage.loader import load_block, read_table_frame, store_table  # noqa: E402
from repro.storage.router import StorageRouter  # noqa: E402
from repro.storage.systems import DistributedFS  # noqa: E402
from repro.workload.generator import skewed_join_dataset, skewed_join_queries  # noqa: E402

ROWS, BLOCK_ROWS, QUERIES = 48_000, 6_000, 40


def _store(seed: int):
    fs = DistributedFS(TopologySpec(1, 1, 2).addresses())
    router = StorageRouter()
    router.register(fs, default=True)
    catalog = Catalog()
    fact, dim = skewed_join_dataset(ROWS, seed=seed)
    store_table(
        "T", Schema.of(k=DataType.INT64, v=DataType.FLOAT64, w=DataType.INT64,
                       note=DataType.STRING),
        fact, router, fs, block_rows=BLOCK_ROWS, scale_factor=1200.0, catalog=catalog,
    )
    store_table("D", Schema.of(k=DataType.INT64, label=DataType.STRING), dim, router, fs,
                catalog=catalog)
    return router, catalog


def _tasks(router, catalog, statements):
    """``(plan, join_plan, broadcasts, task, frame, report)`` per task."""
    out = []
    for sql in statements:
        plan = build_plan(analyze_sql(sql, catalog))
        join_plan = dataclasses.replace(
            plan, shape=dataclasses.replace(plan.shape, eager_join=None)
        )
        broadcasts = {
            bc.binding: Frame.from_columns(
                read_table_frame(router, catalog.get(bc.table_name), list(bc.columns))
            )
            for bc in plan.broadcasts
        }
        for task in plan.tasks:
            block = load_block(router, task.block)
            report, frame = _scan_block(task, plan, block, block.block_id, (), 0.0)
            out.append((plan, join_plan, broadcasts, task, frame, report))
    return out


#: ``(shape, rewrite of a workload statement)``; the first is the workload.
SHAPES = [
    ("eligible, eager", lambda sql: sql),
    ("LEFT JOIN", lambda sql: sql.replace(" JOIN D ", " LEFT JOIN D ")),
    ("ON with a residual conjunct",
     lambda sql: sql.replace("ON T.k = D.k", "ON T.k = D.k AND T.w > 100")),
    ("non-equi", lambda sql: sql.replace("ON T.k = D.k", "ON T.k < D.k")),
    ("comma join",
     lambda sql: sql.replace(" JOIN D ON T.k = D.k WHERE ", ", D WHERE T.k = D.k AND ")),
    ("non-aggregate join",
     lambda sql: re.sub(r"^SELECT .* FROM ", "SELECT D.label AS g, T.v AS a FROM ",
                        sql).replace(" GROUP BY D.label", "")),
]


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-9)
    return type(a) is type(b) and a == b


def _agree(got, want) -> None:
    """The two paths' task results are the same answer and the same charge."""
    assert dataclasses.asdict(got.report) == dataclasses.asdict(want.report), got.task_id
    assert got.partial.rows_scanned == want.partial.rows_scanned
    got_finals, want_finals = got.partial.finals(), want.partial.finals()
    got_keys = {key: key for key in got_finals}
    assert got_keys.keys() == want_finals.keys()
    for key, finals in want_finals.items():
        assert list(map(type, got_keys[key])) == list(map(type, key)), key
        assert all(map(_same, got_finals[key], finals)), (key, got_finals[key])


def _us(run, tasks, repeat: int) -> float:
    for args in tasks:
        run(*args)
    start = perf_counter()
    for _ in range(repeat):
        for args in tasks:
            run(*args)
    return 1e6 * (perf_counter() - start) / (repeat * len(tasks))


def _calls(run, tasks) -> float:
    """Interpreter calls per task, Python and C alike."""
    profile = cProfile.Profile()
    profile.enable()
    for args in tasks:
        run(*args)
    profile.disable()
    return pstats.Stats(profile).total_calls / len(tasks)


def _run(frame, task, plan, broadcasts, report):
    return _finish_task(frame, task, plan, broadcasts, dataclasses.replace(report))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7, help="data and statement seed")
    ap.add_argument("--repeat", type=int, default=20, help="passes timed over all tasks")
    args = ap.parse_args(argv)
    router, catalog = _store(args.seed)
    statements = skewed_join_queries(QUERIES, seed=args.seed)
    tasks = _tasks(router, catalog, statements)
    eager = [(f, t, p, b, r) for p, _j, b, t, f, r in tasks]
    joined = [(f, t, j, b, r) for _p, j, b, t, f, r in tasks]
    for e, j in zip(eager, joined):
        _agree(_run(*e), _run(*j))
    eligible = sum(p.shape.eager_join is not None for p, *_ in tasks)
    per_query = len(tasks) / QUERIES
    eager_us, join_us = _us(_run, eager, args.repeat), _us(_run, joined, args.repeat)
    print(f"{len(tasks)} tasks ({eligible} eligible), {per_query:.0f} per query; "
          "both paths agree on groups, finals and reports")
    print(f"{'path':<22}{'us per task':>12}")
    print(f"{'join, then aggregate':<22}{join_us:>12.1f}")
    print(f"{'_finish_task':<22}{eager_us:>12.1f}")
    print(f"speed-up {join_us / eager_us:.2f}x, "
          f"{(join_us - eager_us) * per_query / 1000:.3f} ms saved per query")
    del tasks, joined

    print(f"\n{'shape':<30}{'calls / task':>14}{'us / task':>12}")
    for shape, rewrite in SHAPES:
        runs = eager if shape == SHAPES[0][0] else [
            (f, t, p, b, r)
            for p, _j, b, t, f, r in _tasks(router, catalog, map(rewrite, statements))
        ]
        print(f"{shape:<30}{_calls(_run, runs):>14.1f}{_us(_run, runs, args.repeat):>12.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
