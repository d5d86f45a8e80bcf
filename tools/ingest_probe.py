#!/usr/bin/env python
"""Ingest probe: where one batch's time goes on the write path.

Prints milliseconds per ``generate_log_records`` batch for each stage of
``LogIngestor.ingest`` — flatten, column facts + codec choice, encode,
chunk statistics, ``to_bytes``, storage write — then the two costs the
first queries over a fresh block pay: microseconds per SmartIndex insert
of one predicate's result vector over the batch, and per
``ColumnChunk.reader()`` on the parsed block, by codec, for the first
reader of a chunk and for a later one.  A write-path change can size its
gain here without cProfile.  Printed, not gated: wall times depend on
the box.

    python tools/ingest_probe.py [--records 400] [--batches 48]
"""

import argparse
import os
import sys
from collections import defaultdict
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro import FeisuCluster, FeisuConfig  # noqa: E402
from repro.columnar.block import Block, ColumnChunk, _compute_stats  # noqa: E402
from repro.columnar.encoding import ColumnFacts, choose_encoding, codec_by_tag  # noqa: E402
from repro.columnar.json_flatten import flatten_records  # noqa: E402
from repro.index.smartindex import SmartIndexManager  # noqa: E402
from repro.planner.cnf import AtomicPredicate  # noqa: E402
from repro.sql.ast import BinaryOperator as Op  # noqa: E402
from repro.workload.loggen import generate_log_records  # noqa: E402

#: The predicates ``ingest_query`` evaluates on every fresh block.
ATOMS = [
    AtomicPredicate("request.status", Op.EQ, 200),
    AtomicPredicate("latency_ms", Op.GT, 40.0),
    AtomicPredicate("latency_ms", Op.GT, 150.0),
    AtomicPredicate("request.page", Op.EQ, "/p7"),
]


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

    blobs = []
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
        blobs.append(blob)
    for stage, seconds in spent.items():
        print(f"{stage:<14}{1e3 * seconds / args.batches:8.3f} ms/batch")
    print(f"{'total':<14}{1e3 * sum(spent.values()) / args.batches:8.3f} ms/batch")

    # First reads of the fresh blocks: a reader per chunk, twice, then
    # one SmartIndex insert per predicate result.
    manager = SmartIndexManager()
    readers = defaultdict(lambda: [0, 0.0, 0.0])  # codec -> [chunks, first s, again s]
    insert_s, inserts = 0.0, 0
    for b, blob in enumerate(blobs):
        block = Block.from_bytes(blob)
        for chunk in block.chunks.values():
            start = perf_counter()
            chunk.reader()
            middle = perf_counter()
            chunk.reader()
            figures = readers[codec_by_tag(chunk.encoding_tag).name]
            figures[0] += 1
            figures[1] += middle - start
            figures[2] += perf_counter() - middle
        for atom in ATOMS:
            mask = block.chunks[atom.column].reader().map_bool(atom.evaluate)
            start = perf_counter()
            manager.insert((block.block_id, b), atom, mask, now=float(b))
            insert_s += perf_counter() - start
            inserts += 1
    print(f"{'index insert':<14}{1e6 * insert_s / inserts:8.1f} us/vector of {args.records} rows")
    for name, (count, first, again) in sorted(readers.items()):
        print(
            f"{'reader ' + name:<22}{1e6 * first / count:8.1f} us first"
            f"{1e6 * again / count:8.1f} us again   ({count} chunks)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
