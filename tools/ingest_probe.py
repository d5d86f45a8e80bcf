#!/usr/bin/env python
"""Ingest probe: where one batch's time goes on the write path.

Prints milliseconds per ``generate_log_records`` batch for each stage of
``LogIngestor.ingest`` — flatten, column facts + codec choice, encode,
chunk statistics, ``to_bytes``, storage write — so a write-path change
can size its gain without cProfile.  Printed, not gated: wall
milliseconds depend on the box.

    python tools/ingest_probe.py [--records 400] [--batches 48]
"""

import argparse
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import FeisuCluster, FeisuConfig  # noqa: E402
from repro.columnar.block import Block, ColumnChunk, _compute_stats  # noqa: E402
from repro.columnar.encoding import ColumnFacts, choose_encoding  # noqa: E402
from repro.columnar.json_flatten import flatten_records  # noqa: E402
from repro.workload.loggen import generate_log_records  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--records", type=int, default=400, help="records per batch")
    ap.add_argument("--batches", type=int, default=48)
    args = ap.parse_args(argv)
    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=2, nodes_per_rack=4))
    spent = dict.fromkeys(("flatten", "facts+choose", "encode", "stats", "to_bytes", "write"), 0.0)
    clock = [perf_counter()]

    def lap(stage: str) -> None:
        now = perf_counter()
        spent[stage] += now - clock[0]
        clock[0] = now

    for b in range(args.batches):
        records = generate_log_records(args.records, b % 8, b // 8, seed=7)
        clock[0] = perf_counter()
        schema, columns = flatten_records(records)
        lap("flatten")
        chunks = {}
        for f in schema:
            array = columns[f.name]
            facts = ColumnFacts(array)
            codec = choose_encoding(array, f.dtype, facts)
            lap("facts+choose")
            payload = codec.encode(array, facts)
            lap("encode")
            stats = _compute_stats(array, f.dtype, facts)
            lap("stats")
            chunks[f.name] = ColumnChunk(f.name, f.dtype, codec.tag, payload, stats, len(array))
        blob = Block(f"probe.b{b}", schema, chunks, len(records)).to_bytes()
        lap("to_bytes")
        cluster.local_fs.write(f"/probe/b{b}", blob, node=cluster.nodes[b % len(cluster.nodes)])
        lap("write")
    for stage, seconds in spent.items():
        print(f"{stage:<14}{1e3 * seconds / args.batches:8.3f} ms/batch")
    print(f"{'total':<14}{1e3 * sum(spent.values()) / args.batches:8.3f} ms/batch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
