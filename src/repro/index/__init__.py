"""SmartIndex (adaptive predicate-result cache) and the B+ tree baseline."""

from repro.index.bitmap import BitVector, rle_compress, rle_decompress
from repro.index.btree import BPlusTree
from repro.index.smartindex import (
    DEFAULT_MEMORY_BYTES,
    DEFAULT_TTL_S,
    IndexStats,
    SmartIndexEntry,
    SmartIndexManager,
)

__all__ = [
    "BPlusTree",
    "BitVector",
    "DEFAULT_MEMORY_BYTES",
    "DEFAULT_TTL_S",
    "IndexStats",
    "SmartIndexEntry",
    "SmartIndexManager",
    "rle_compress",
    "rle_decompress",
]
