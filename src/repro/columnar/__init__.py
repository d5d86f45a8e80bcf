"""Feisu's compression-friendly columnar format (§III-A)."""

from repro.columnar.block import (
    DEFAULT_BLOCK_ROWS,
    Block,
    ChunkStats,
    ColumnChunk,
    split_into_blocks,
)
from repro.columnar.encoding import (
    BitPackedEncoding,
    ChunkReader,
    ColumnFacts,
    DeltaEncoding,
    DictionaryEncoding,
    Encoding,
    PlainEncoding,
    RunLengthEncoding,
    choose_encoding,
)
from repro.columnar.json_flatten import align_columns, flatten_record, flatten_records
from repro.columnar.schema import DataType, Field, Schema, coerce_array
from repro.columnar.stats import ColumnHistogram
from repro.columnar.table import BlockRef, Catalog, Table

__all__ = [
    "DEFAULT_BLOCK_ROWS",
    "BitPackedEncoding",
    "Block",
    "BlockRef",
    "Catalog",
    "ColumnHistogram",
    "ChunkReader",
    "ChunkStats",
    "ColumnChunk",
    "ColumnFacts",
    "DataType",
    "DeltaEncoding",
    "DictionaryEncoding",
    "Encoding",
    "Field",
    "PlainEncoding",
    "RunLengthEncoding",
    "Schema",
    "Table",
    "align_columns",
    "choose_encoding",
    "coerce_array",
    "flatten_record",
    "flatten_records",
    "split_into_blocks",
]
