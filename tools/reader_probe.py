#!/usr/bin/env python
"""Reader probe: what one chunk read costs, codec by codec.

Prints microseconds per ``ChunkReader.map_bool`` (a comparison atom, on
every row and on half the rows) and per ``take`` of half the rows, on
chunks of ``--rows`` rows parsed by ``Block.from_bytes`` — so the views
are as unaligned as on a leaf — and the reader class each chunk got (a
numeric dictionary no smaller than plain reads as ``_ViewReader``).  A
change to the kernels or to the codec chooser can size its gain here
without the end-to-end harness.
Printed, not gated: wall microseconds depend on the box.

    python tools/reader_probe.py [--rows 80000] [--repeat 50]
"""

import argparse
import os
import sys
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.columnar.block import Block, ChunkStats, ColumnChunk  # noqa: E402
from repro.columnar.encoding import (  # noqa: E402
    BitPackedEncoding,
    DeltaEncoding,
    DictionaryEncoding,
    PlainEncoding,
    RunLengthEncoding,
)
from repro.columnar.schema import DataType, Schema  # noqa: E402
from repro.planner.cnf import AtomicPredicate  # noqa: E402
from repro.sql.ast import BinaryOperator as Op  # noqa: E402


def _cases(n: int, rng):
    """``(label, dtype, array, codec, atom)``: each codec on the column
    shape it is chosen for, plus plain on the near-unique column that
    the chooser dictionary-codes today."""
    near_unique = rng.integers(0, 1_000_000, n)
    few = rng.integers(0, 16, n)
    words = np.array([f"word{i:02d}" for i in range(64)], dtype=object)[rng.integers(0, 64, n)]
    lt = lambda v: AtomicPredicate("c", Op.LT, v, False)  # noqa: E731
    return [
        ("plain int64 near-unique", DataType.INT64, near_unique, PlainEncoding(), lt(500_000)),
        ("dict int64 near-unique", DataType.INT64, near_unique, DictionaryEncoding(), lt(500_000)),
        ("dict float64 near-unique", DataType.FLOAT64, rng.random(n) * 100.0,
         DictionaryEncoding(), lt(50.0)),
        # Exactly half the rows distinct: the boundary, still read as plain.
        ("dict int64 half-distinct", DataType.INT64, rng.permutation(np.arange(n) // 2),
         DictionaryEncoding(), lt(n // 4)),
        ("dict int64 16 uniques", DataType.INT64, few, DictionaryEncoding(),
         AtomicPredicate("c", Op.EQ, 7, False)),
        ("dict string contains", DataType.STRING, words, DictionaryEncoding(),
         AtomicPredicate("c", Op.CONTAINS, "word1", False)),
        ("rle int64 sorted", DataType.INT64, np.sort(few), RunLengthEncoding(), lt(8)),
        ("delta int64 sorted", DataType.INT64, np.sort(near_unique), DeltaEncoding(),
         lt(500_000)),
        ("bitpacked bool", DataType.BOOL, few < 8, BitPackedEncoding(),
         AtomicPredicate("c", Op.EQ, True, False)),
    ]


def _us(fn, repeat: int) -> float:
    fn()
    start = perf_counter()
    for _ in range(repeat):
        fn()
    return 1e6 * (perf_counter() - start) / repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", type=int, default=80_000, help="rows per chunk")
    ap.add_argument("--repeat", type=int, default=50, help="calls timed per figure")
    args = ap.parse_args(argv)
    rng = np.random.default_rng(7)
    half = np.sort(rng.choice(args.rows, args.rows // 2, replace=False))
    print(f"{'chunk':<26}{'map_bool':>10}{'map_bool/2':>12}{'take/2':>10}  reader   (us per call)")
    for label, dtype, array, codec, atom in _cases(args.rows, rng):
        chunk = ColumnChunk("c", dtype, codec.tag, codec.encode(array), ChunkStats(), len(array))
        wire = Block("probe", Schema.of(c=dtype), {"c": chunk}, len(array)).to_bytes()
        reader = Block.from_bytes(wire).chunks["c"].reader()
        figures = (
            _us(lambda: reader.map_bool(atom.evaluate), args.repeat),
            _us(lambda: reader.map_bool(atom.evaluate, half), args.repeat),
            _us(lambda: reader.take(half), args.repeat),
        )
        print(f"{label:<26}" + "".join(f"{f:>{w}.1f}" for f, w in zip(figures, (10, 12, 10)))
              + f"  {type(reader).__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
