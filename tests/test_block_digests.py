"""Golden block bytes: the cheap detector for a moved write path.

Every block the write path produces for a fixed set of inputs — log
batches through ``flatten_records``, the ``repro.workload`` table
generators through ``split_into_blocks``, and a hand-built table of edge
cases — is digested (sha256 of ``Block.to_bytes()``) and compared with
``tests/golden/block_digests.json``.  A change meant only to make
flattening, codec choice, statistics or encoding *faster* must leave the
file untouched: modeled I/O is a function of these bytes.  It may be
regenerated (``python tests/test_block_digests.py --regenerate``) only
by a PR that says it moves modeled bytes (docs/TESTING.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

import numpy as np

from repro.columnar.block import Block, split_into_blocks
from repro.columnar.encoding import codec_by_tag
from repro.columnar.json_flatten import flatten_records
from repro.columnar.schema import DataType, Schema
from repro.workload.datasets import default_specs, synthesize
from repro.workload.generator import skewed_join_dataset
from repro.workload.loggen import generate_log_records

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "block_digests.json"
)

_KEYWORDS = ["alpha", "bravo", "delta", "gamma", "kappa", "omega", "sigma", "theta"]

#: Records whose columns hit every branch of type inference and defaults.
EDGE_RECORDS = [
    {"all_none": None, "mix": 1, "text": 1, "flag": True, "uni": "héllo", "nul": "a\x00",
     "ragged": {"x": 1}, "tags": ["a", 2, 3.5]},
    {"all_none": None, "mix": 2.5, "text": "two", "flag": False, "uni": "日本語", "nul": "\x00",
     "tags": ()},
    {"all_none": None, "mix": None, "text": None, "flag": None, "uni": "", "nul": "a\x00\x00",
     "ragged": {"x": None, "y": "late"}, "tags": ["only"]},
    {"all_none": None, "mix": 4, "text": False, "flag": True, "uni": "héllo", "nul": "a",
     "ragged": {"y": "again"}, "extra": 9},
]


def log_blocks() -> List[Block]:
    blocks = []
    for seed in (0, 7, 11):
        for hour in (0, 5):
            schema, columns = flatten_records(generate_log_records(400, 2, hour, seed))
            blocks.append(Block.from_arrays(f"logs.s{seed}.h{hour}", schema, columns))
    return blocks


def generator_blocks() -> List[Block]:
    blocks = []
    for spec in default_specs(t1_rows=6000, t2_rows=9000, t3_rows=3000):
        schema, columns = synthesize(spec)
        blocks += split_into_blocks(spec.name, schema, columns, 2048, spec.scale_factor)
    fact, dim = skewed_join_dataset(12_000, seed=17)
    blocks += split_into_blocks(
        "fact",
        Schema.of(k=DataType.INT64, v=DataType.FLOAT64, w=DataType.INT64, note=DataType.STRING),
        fact, 6000, 1200.0,
    )
    blocks += split_into_blocks(
        "dim", Schema.of(k=DataType.INT64, label=DataType.STRING), dim
    )
    # The shape benchmarks/e2e loads: one block well past the chooser's
    # 4 096-row sample, with a near-unique float and a 400-word dictionary.
    rng = np.random.default_rng(7)
    rows = 20_000
    blocks += split_into_blocks(
        "wide",
        Schema.of(a=DataType.INT64, g=DataType.INT64, x=DataType.FLOAT64, s=DataType.STRING),
        {
            "a": rng.integers(0, 1000, rows),
            "g": rng.integers(0, 16, rows),
            "x": rng.random(rows) * 100.0,
            "s": np.array(
                [_KEYWORDS[i] + "-" + str(j) for i, j in
                 zip(rng.integers(0, len(_KEYWORDS), rows), rng.integers(0, 50, rows))],
                dtype=object,
            ),
        },
        rows,
    )
    return blocks


def edge_blocks() -> List[Block]:
    schema, columns = flatten_records(EDGE_RECORDS)
    flattened = Block.from_arrays("edge.flattened", schema, columns)
    n = 600
    strings = np.empty(n, dtype=object)
    strings[:] = [f"π{i % 97}\x00" * (i % 3) for i in range(n)]
    shaped_schema = Schema.of(
        sorted_ids=DataType.INT64, constant=DataType.INT64, runs=DataType.STRING,
        noise=DataType.FLOAT64, negzero=DataType.FLOAT64, unique_text=DataType.STRING,
        flags=DataType.BOOL, wrapping=DataType.INT64,
    )
    shaped = Block.from_arrays(
        "edge.shaped",
        shaped_schema,
        {
            "sorted_ids": np.arange(1_000_000, 1_000_000 + 3 * n, 3, dtype=np.int64),
            "constant": np.full(n, 42, dtype=np.int64),
            "runs": np.array(["aa"] * 200 + ["bb"] * 399 + ["aa"], dtype=object),
            "noise": np.random.default_rng(3).random(n),
            "negzero": np.array([0.0, -0.0, np.nan, 1.5, -0.0, 0.0] * 100),
            "unique_text": strings,
            "flags": np.arange(n) % 3 == 0,
            "wrapping": np.array([np.iinfo(np.int64).max, np.iinfo(np.int64).min] * (n // 2)),
        },
        scale_factor=2.5,
    )
    empty = Block.from_arrays(
        "edge.empty",
        shaped_schema,
        {f.name: np.empty(0, dtype=f.dtype.numpy_dtype) for f in shaped_schema},
    )
    single = Block.from_arrays(
        "edge.single",
        Schema.of(i=DataType.INT64, s=DataType.STRING),
        {"i": np.array([5]), "s": np.array(["x"], dtype=object)},
    )
    return [flattened, shaped, empty, single]


def digests() -> Dict[str, str]:
    out = {}
    for block in log_blocks() + generator_blocks() + edge_blocks():
        assert block.block_id not in out
        out[block.block_id] = hashlib.sha256(block.to_bytes()).hexdigest()
    return out


def test_blocks_are_byte_identical_to_golden():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    actual = digests()
    assert sorted(actual) == sorted(golden)
    moved = sorted(name for name in golden if actual[name] != golden[name])
    assert not moved, f"block bytes moved: {moved}"


def test_edge_blocks_exercise_what_they_claim():
    flattened, shaped, empty, _single = edge_blocks()
    assert flattened.schema.to_dict() == {
        "all_none": "string", "mix": "float64", "text": "string", "flag": "bool",
        "uni": "string", "nul": "string", "ragged.x": "int64", "tags": "string",
        "ragged.y": "string", "extra": "int64",
    }
    assert flattened.column("all_none").tolist() == [""] * 4
    assert flattened.column("text").tolist() == ["1", "two", "", "False"]
    assert flattened.column("nul").tolist() == ["a\x00", "\x00", "a\x00\x00", "a"]
    names = {n: codec_by_tag(c.encoding_tag).name for n, c in shaped.chunks.items()}
    assert names["sorted_ids"] == "delta"
    assert names["constant"] == "rle"
    assert names["runs"] == "rle"
    assert names["flags"] == "bitpacked"
    assert {names["noise"], names["unique_text"]} <= {"plain", "dictionary"}
    assert empty.num_rows == 0 and empty.total_bytes > 0
    # One block is past the chooser's sample, so the sampled estimate and
    # the full-column statistics differ.
    wide = generator_blocks()[-1]
    assert wide.num_rows > 4096
    assert wide.chunks["x"].stats.distinct_estimate > 4096


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/test_block_digests.py --regenerate  (see docs/TESTING.md)")
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", GOLDEN_PATH)
