"""Block construction, statistics, serialization, splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.block import Block, split_into_blocks
from repro.columnar.schema import DataType, Schema
from repro.errors import StorageError

SCHEMA = Schema.of(a=DataType.INT64, s=DataType.STRING, f=DataType.FLOAT64, b=DataType.BOOL)


def _columns(n=100, seed=0):
    rng = np.random.default_rng(seed)
    s = np.empty(n, dtype=object)
    for i in range(n):
        s[i] = f"val{i % 9}"
    return {
        "a": rng.integers(-50, 50, n),
        "s": s,
        "f": rng.random(n),
        "b": rng.integers(0, 2, n).astype(bool),
    }


def test_from_arrays_and_column_read():
    cols = _columns()
    block = Block.from_arrays("t.b0", SCHEMA, cols)
    assert block.num_rows == 100
    assert (block.column("a") == cols["a"]).all()
    assert list(block.column("s")) == list(cols["s"])
    assert (block.column("b") == cols["b"]).all()


def test_missing_chunk_rejected():
    with pytest.raises(StorageError, match="missing chunks"):
        Block("t.b0", SCHEMA, {}, 0)


def test_ragged_columns_rejected():
    cols = _columns()
    cols["a"] = cols["a"][:50]
    with pytest.raises(StorageError, match="ragged"):
        Block.from_arrays("t.b0", SCHEMA, cols)


def test_unknown_column_read_rejected():
    block = Block.from_arrays("t.b0", SCHEMA, _columns())
    with pytest.raises(StorageError):
        block.column("nope")


def test_stats_ranges():
    cols = _columns()
    block = Block.from_arrays("t.b0", SCHEMA, cols)
    stats = block.chunks["a"].stats
    assert stats.min_value == int(cols["a"].min())
    assert stats.max_value == int(cols["a"].max())
    assert stats.distinct_estimate == len(np.unique(cols["a"]))


def test_round_tripped_block_keeps_its_chunk_stats():
    back = Block.from_bytes(Block.from_arrays("t.b0", SCHEMA, _columns()).to_bytes())
    stats = back.chunks["s"].stats
    assert (stats.min_value, stats.max_value, stats.distinct_estimate) == ("val0", "val8", 9)


def test_serialization_round_trip():
    cols = _columns()
    block = Block.from_arrays("t.b7", SCHEMA, cols, scale_factor=2.5)
    back = Block.from_bytes(block.to_bytes())
    assert back.block_id == "t.b7"
    assert back.num_rows == 100
    assert back.scale_factor == 2.5
    assert back.schema == SCHEMA
    for name in SCHEMA.names:
        a, b = block.column(name), back.column(name)
        assert list(a) == list(b)


def test_bad_magic_rejected():
    with pytest.raises(StorageError, match="magic"):
        Block.from_bytes(b"XXXX" + b"\x00" * 20)


def test_column_bytes_projection_accounting():
    block = Block.from_arrays("t.b0", SCHEMA, _columns())
    partial = block.column_bytes(["a", "f"])
    assert 0 < partial < block.total_bytes


def test_modeled_scaling():
    block = Block.from_arrays("t.b0", SCHEMA, _columns(), scale_factor=1000.0)
    assert block.modeled_rows == 100 * 1000.0
    assert block.modeled_bytes == block.total_bytes * 1000.0


def test_split_into_blocks_shapes():
    cols = _columns(n=95)
    blocks = split_into_blocks("t", SCHEMA, cols, block_rows=40)
    assert [b.num_rows for b in blocks] == [40, 40, 15]
    assert [b.block_id for b in blocks] == ["t.b0", "t.b1", "t.b2"]
    merged = np.concatenate([b.column("a") for b in blocks])
    assert (merged == cols["a"]).all()


def test_split_invalid_block_rows():
    with pytest.raises(StorageError):
        split_into_blocks("t", SCHEMA, _columns(), block_rows=0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=200),
    st.integers(min_value=1, max_value=64),
)
def test_property_split_preserves_data(values, block_rows):
    schema = Schema.of(x=DataType.INT64)
    cols = {"x": np.array(values, dtype=np.int64)}
    blocks = split_into_blocks("t", schema, cols, block_rows=block_rows)
    merged = np.concatenate([b.column("x") for b in blocks])
    assert list(merged) == values
    assert sum(b.num_rows for b in blocks) == len(values)
