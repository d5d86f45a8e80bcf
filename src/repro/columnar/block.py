"""Columnar blocks: the unit of storage, scheduling and indexing.

A :class:`Block` holds a horizontal slice of a table (a few tens of
thousands of rows) as a set of independently encoded column chunks, plus
per-chunk statistics (min/max range, distinct estimate) used for
block pruning.  SmartIndex entries are keyed by ``(block_id, predicate)``
exactly as Fig 6 shows.

The *logical* row count of a block may represent many more production
rows than are physically materialized: the reproduction scales Baidu's
PB-size tables down (DESIGN.md §1) while keeping modeled byte sizes
proportional, via :attr:`Block.scale_factor`.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.columnar.encoding import ChunkReader, ColumnFacts, choose_encoding, codec_by_tag
from repro.columnar.schema import DataType, Schema
from repro.errors import StorageError

#: Default number of rows per block.
DEFAULT_BLOCK_ROWS = 8192

_MAGIC = b"FSU1"


@dataclass
class ChunkStats:
    """Statistics for one column chunk, used for pruning."""

    min_value: Optional[object] = None
    max_value: Optional[object] = None
    distinct_estimate: int = 0


class ColumnChunk:
    """One encoded column inside a block."""

    __slots__ = (
        "name", "dtype", "encoding_tag", "payload", "stats", "row_count",
        "_reader_parts", "_make_reader",
    )

    def __init__(
        self,
        name: str,
        dtype: DataType,
        encoding_tag: int,
        payload: bytes,
        stats: ChunkStats,
        row_count: int,
    ):
        self.name = name
        self.dtype = dtype
        self.encoding_tag = encoding_tag
        self.payload = payload
        self.stats = stats
        self.row_count = row_count
        self._reader_parts: Optional[tuple] = None
        self._make_reader = None  # the codec's ``reader``, with the parts

    @classmethod
    def from_array(cls, name: str, dtype: DataType, array: np.ndarray) -> "ColumnChunk":
        facts = ColumnFacts(array)
        codec = choose_encoding(array, dtype, facts)
        payload = codec.encode(array, facts)
        stats = _compute_stats(array, dtype, facts)
        return cls(name, dtype, codec.tag, payload, stats, len(array))

    def decode(self) -> np.ndarray:
        """Fully materialize the column as a fresh writable array."""
        return codec_by_tag(self.encoding_tag).decode(self.payload, self.row_count)

    def reader(self) -> ChunkReader:
        """Encoding-aware access (predicate on the encoded form, gather
        of chosen rows) that equals the same operation on :meth:`decode`.

        The parts a reader answers from (a dictionary's uniques and codes,
        or its decoded copy when it is no smaller than plain; an RLE
        chunk's runs; a plain numeric view) are read off the payload
        by the first call and shared, read-only, by every later reader of
        this chunk: they live exactly as long as the chunk and its payload
        do, which for a leaf is while its parsed-block map holds that very
        payload.  ``values()`` is still decoded once per reader.  The
        codec is looked up once too, by the same first call."""
        make = self._make_reader
        if make is None:
            codec = codec_by_tag(self.encoding_tag)
            self._reader_parts = codec.reader_parts(self.payload, self.row_count)
            make = self._make_reader = codec.reader
        return make(self._reader_parts, self.decode)

    @property
    def encoded_bytes(self) -> int:
        return len(self.payload)


def _compute_stats(array: np.ndarray, dtype: DataType, facts: ColumnFacts) -> ChunkStats:
    if len(array) == 0:
        return ChunkStats()
    if dtype is DataType.STRING:
        distinct = facts.first_seen
        return ChunkStats(str(min(distinct)), str(max(distinct)), len(distinct))
    lo, hi = array.min(), array.max()
    if dtype is DataType.BOOL:
        return ChunkStats(bool(lo), bool(hi), int(lo != hi) + 1)
    if dtype is DataType.INT64:
        return ChunkStats(int(lo), int(hi), facts.distinct_count)
    return ChunkStats(float(lo), float(hi), facts.distinct_count)


class Block:
    """A horizontal slice of a table stored as encoded column chunks."""

    def __init__(
        self,
        block_id: str,
        schema: Schema,
        chunks: Dict[str, ColumnChunk],
        num_rows: int,
        scale_factor: float = 1.0,
    ):
        missing = [f.name for f in schema if f.name not in chunks]
        if missing:
            raise StorageError(f"block {block_id} missing chunks for {missing}")
        self.block_id = block_id
        self.schema = schema
        self.chunks = chunks
        self.num_rows = num_rows
        #: How many production rows each materialized row stands for.
        self.scale_factor = scale_factor

    @classmethod
    def from_arrays(
        cls,
        block_id: str,
        schema: Schema,
        columns: Dict[str, np.ndarray],
        scale_factor: float = 1.0,
    ) -> "Block":
        rows = {len(v) for v in columns.values()}
        if len(rows) > 1:
            raise StorageError(f"ragged columns in block {block_id}: {sorted(rows)}")
        num_rows = rows.pop() if rows else 0
        chunks = {
            f.name: ColumnChunk.from_array(f.name, f.dtype, columns[f.name]) for f in schema
        }
        return cls(block_id, schema, chunks, num_rows, scale_factor)

    def column(self, name: str) -> np.ndarray:
        """Decode and return one column (this is the 'scan' I/O path)."""
        try:
            return self.chunks[name].decode()
        except KeyError:
            raise StorageError(f"block {self.block_id} has no column {name!r}") from None

    def columns(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        return {n: self.column(n) for n in names}

    def column_bytes(self, names: Sequence[str]) -> int:
        """Encoded bytes of the requested columns — the I/O the columnar
        layout actually pays for a projection (§III-A's motivation)."""
        chunks = self.chunks
        total = 0
        for n in names:
            if n in chunks:
                total += len(chunks[n].payload)
        return total

    @property
    def total_bytes(self) -> int:
        return sum(c.encoded_bytes for c in self.chunks.values())

    @property
    def modeled_rows(self) -> float:
        """Production-scale row count this block represents."""
        return self.num_rows * self.scale_factor

    @property
    def modeled_bytes(self) -> float:
        return self.total_bytes * self.scale_factor

    # -- serialization -------------------------------------------------

    def to_bytes(self) -> bytes:
        """Self-describing binary layout: magic, json header, payloads."""
        header = {
            "block_id": self.block_id,
            "num_rows": self.num_rows,
            "scale_factor": self.scale_factor,
            "schema": self.schema.to_dict(),
            "chunks": [
                {
                    "name": c.name,
                    "dtype": c.dtype.value,
                    "encoding": c.encoding_tag,
                    "length": len(c.payload),
                    "min": _json_safe(c.stats.min_value),
                    "max": _json_safe(c.stats.max_value),
                    "distinct": c.stats.distinct_estimate,
                }
                for c in self.chunks.values()
            ],
        }
        hbytes = json.dumps(header).encode("utf-8")
        parts = [_MAGIC, struct.pack("<I", len(hbytes)), hbytes]
        for spec in header["chunks"]:
            parts.append(self.chunks[spec["name"]].payload)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "Block":
        """Parse the header; chunk payloads stay zero-copy ``memoryview``
        slices of ``payload`` (which they keep alive)."""
        if payload[:4] != _MAGIC:
            raise StorageError("not a Feisu columnar block (bad magic)")
        (hlen,) = struct.unpack_from("<I", payload, 4)
        buf = memoryview(payload)
        header = json.loads(str(buf[8 : 8 + hlen], "utf-8"))
        schema = Schema.from_dict(header["schema"])
        pos = 8 + hlen
        chunks: Dict[str, ColumnChunk] = {}
        for spec in header["chunks"]:
            raw = buf[pos : pos + spec["length"]]
            pos += spec["length"]
            dtype = DataType(spec["dtype"])
            stats = ChunkStats(spec["min"], spec["max"], spec["distinct"])
            chunks[spec["name"]] = ColumnChunk(
                spec["name"], dtype, spec["encoding"], raw, stats, header["num_rows"]
            )
        return cls(
            header["block_id"], schema, chunks, header["num_rows"], header["scale_factor"]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Block {self.block_id} rows={self.num_rows} cols={len(self.chunks)}>"


def _json_safe(value: object) -> object:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def split_into_blocks(
    table_name: str,
    schema: Schema,
    columns: Dict[str, np.ndarray],
    block_rows: int = DEFAULT_BLOCK_ROWS,
    scale_factor: float = 1.0,
) -> List[Block]:
    """Partition full-table columns into fixed-size blocks."""
    if block_rows < 1:
        raise StorageError("block_rows must be >= 1")
    total = len(next(iter(columns.values()))) if columns else 0
    blocks = []
    for start in range(0, max(total, 1), block_rows):
        end = min(start + block_rows, total)
        if end <= start:
            break
        part = {n: v[start:end] for n, v in columns.items()}
        blocks.append(
            Block.from_arrays(
                f"{table_name}.b{start // block_rows}", schema, part, scale_factor
            )
        )
    return blocks
