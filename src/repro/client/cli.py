"""Command-line front-end — one of the §III-C pluggable client tools.

Runs SQL statements from a script file (or stdin) against a demo
deployment loaded with the Table I datasets, printing each result as an
aligned table with its simulated response time::

    python -m repro.client.cli --sql "SELECT COUNT(*) FROM T1"
    python -m repro.client.cli queries.sql --t1-rows 8000
    echo "EXPLAIN SELECT url FROM T1 WHERE click_count > 3" | python -m repro.client.cli -

Statements are ``;``-separated; a leading ``EXPLAIN`` renders the plan
instead of executing, and ``EXPLAIN ANALYZE`` executes with tracing on
and renders the plan annotated with actual simulated times/rows/bytes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import FeisuCluster, FeisuConfig
from repro.client.client import FeisuClient
from repro.errors import FeisuError
from repro.sql.statements import classify_statement
from repro.workload.datasets import DatasetSpec, load_paper_datasets


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feisu-cli",
        description="Run SQL against a simulated Feisu deployment "
        "preloaded with the paper's (scaled) T1/T2/T3 datasets.",
    )
    parser.add_argument(
        "script",
        nargs="?",
        help="file of ';'-separated SQL statements, or '-' for stdin",
    )
    parser.add_argument("--sql", action="append", default=[], help="inline statement (repeatable)")
    parser.add_argument("--t1-rows", type=int, default=8_000, help="scaled T1 row count")
    parser.add_argument("--t2-rows", type=int, default=12_000, help="scaled T2 row count")
    parser.add_argument("--t3-rows", type=int, default=4_000, help="scaled T3 row count")
    parser.add_argument("--fields", type=int, default=16, help="T1/T2 field count")
    parser.add_argument("--nodes", type=int, default=8, help="leaf nodes per rack (2 racks)")
    parser.add_argument("--user", default="cli", help="user to run as (created as admin)")
    parser.add_argument("--max-rows", type=int, default=20, help="rows to print per result")
    return parser


def _statements(args: argparse.Namespace) -> List[str]:
    statements = list(args.sql)
    if args.script:
        if args.script == "-":
            text = sys.stdin.read()
        else:
            with open(args.script, encoding="utf-8") as fh:
                text = fh.read()
        statements.extend(s.strip() for s in text.split(";") if s.strip())
    return statements


def _build_cluster(args: argparse.Namespace) -> FeisuCluster:
    cluster = FeisuCluster(
        FeisuConfig(datacenters=1, racks_per_datacenter=2, nodes_per_rack=args.nodes)
    )
    # Scale ~1500 production rows per materialized row: interactive
    # response times on a handful of simulated nodes, like one §VI-A
    # slice of the production cluster.
    specs = [
        DatasetSpec("T1", args.t1_rows, args.fields, "storage-a", args.t1_rows * 1500, seed=101),
        DatasetSpec("T2", args.t2_rows, args.fields, "storage-b", args.t2_rows * 1500, seed=202),
        DatasetSpec("T3", args.t3_rows, max(7, args.fields // 2), "storage-a", args.t3_rows * 1500, seed=303),
    ]
    load_paper_datasets(cluster, specs, block_rows=2048)
    cluster.create_user(args.user, admin=True)
    return cluster


def main(argv: Optional[List[str]] = None, stdout=None) -> int:
    out = stdout or sys.stdout
    args = build_parser().parse_args(argv)
    statements = _statements(args)
    if not statements:
        print("no SQL given; use --sql or a script file", file=out)
        return 2
    cluster = _build_cluster(args)
    client = FeisuClient(cluster, args.user)
    status = 0
    for sql in statements:
        print(f"feisu> {sql}", file=out)
        try:
            mode, body = classify_statement(sql)
            if mode == "explain_analyze":
                print(client.explain_analyze(body), file=out)
            elif mode == "explain":
                print(client.explain(body), file=out)
            else:
                result = client.query(sql)
                print(client.format_table(result, max_rows=args.max_rows), file=out)
                print(
                    f"({result.num_rows} rows, "
                    f"{result.stats['response_time_s'] * 1000:.1f} ms simulated)",
                    file=out,
                )
        except FeisuError as exc:
            print(f"error: {exc}", file=out)
            status = 1
        print(file=out)
    return status


if __name__ == "__main__":  # pragma: no cover - direct invocation
    raise SystemExit(main())
