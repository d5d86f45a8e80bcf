"""0-1 vectors for SmartIndex (Fig 6).

Each SmartIndex stores "the evaluation results of a query predicate" as a
0-1 vector.  :class:`BitVector` is the uncompressed working form (packed
bits, vectorized logical ops); :func:`rle_compress` implements the
byte-level run-length compression the paper mentions ("Feisu can
compress the index to improve memory efficiency") — selective predicates
produce long zero runs that collapse well.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import IndexError_

#: Per-byte popcount lookup table; indexing with a uint8 buffer popcounts
#: the whole buffer without materializing an 8x bool expansion.
_POPCOUNT8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.int64
)


class BitVector:
    """A fixed-length bit vector with bitwise algebra.

    Supports the exact operations of the Fig 7 plan rewrite: bit-AND to
    combine conjuncts, bit-OR for disjunctive clauses, and bit-NOT to
    answer a predicate from its stored complement.
    """

    __slots__ = ("_bits", "length")

    def __init__(self, packed: np.ndarray, length: int):
        if packed.dtype != np.uint8:
            raise IndexError_("BitVector needs a uint8 packed buffer")
        self._bits = packed
        self.length = length

    @classmethod
    def from_bool_array(cls, mask: np.ndarray) -> "BitVector":
        mask = np.asarray(mask, dtype=np.bool_)
        return cls(np.packbits(mask), len(mask))

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        return cls(np.zeros((length + 7) // 8, dtype=np.uint8), length)

    @classmethod
    def ones(cls, length: int) -> "BitVector":
        bv = cls(np.full((length + 7) // 8, 0xFF, dtype=np.uint8), length)
        bv._mask_tail()
        return bv

    def _mask_tail(self) -> None:
        """Zero the padding bits beyond ``length``."""
        tail = self.length % 8
        if tail and len(self._bits):
            self._bits[-1] &= np.uint8(0xFF << (8 - tail) & 0xFF)

    def to_bool_array(self) -> np.ndarray:
        # ``unpackbits`` writes a fresh array of 0 and 1 bytes: read as
        # booleans where it lies.
        return np.unpackbits(self._bits, count=self.length).view(np.bool_)

    def _check(self, other: "BitVector") -> None:
        if self.length != other.length:
            raise IndexError_(
                f"bit vector length mismatch: {self.length} vs {other.length}"
            )

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector(self._bits & other._bits, self.length)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check(other)
        return BitVector(self._bits | other._bits, self.length)

    def __invert__(self) -> "BitVector":
        out = BitVector(~self._bits, self.length)
        out._mask_tail()
        return out

    def count(self) -> int:
        """Number of set bits (matching rows).

        Popcount via the 256-entry byte table — no ``unpackbits``
        materialization; tail padding bits are masked out of the last
        byte so arbitrary packed buffers still count exactly.
        """
        used = (self.length + 7) // 8
        if used == 0:
            return 0
        total = int(_POPCOUNT8[self._bits[:used]].sum())
        tail = self.length % 8
        if tail:
            last = int(self._bits[used - 1])
            masked = last & (0xFF << (8 - tail) & 0xFF)
            total += int(_POPCOUNT8[masked]) - int(_POPCOUNT8[last])
        return total

    def any(self) -> bool:
        return bool(self._bits.any())

    @property
    def nbytes(self) -> int:
        return int(self._bits.nbytes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.length == other.length and bool((self._bits == other._bits).all())

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.length, self._bits.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BitVector len={self.length} set={self.count()}>"


#: One RLE record: the run's byte count (little-endian uint16), the byte.
_RLE_RECORD = np.dtype([("count", "<u2"), ("byte", "u1")])
_RUN_MAX = 0xFFFF


def rle_compress(bv: BitVector) -> Tuple[bytes, int]:
    """Byte-level run-length compression of the packed buffer.

    Returns ``(payload, original_length)``.  Format: repeating
    ``(count:uint16, byte)`` records.  One pass: the positions where the
    byte changes give the run bounds, the bounds the records.
    """
    raw = bv._bits  # noqa: SLF001
    n = len(raw)
    if n == 0:
        return b"", bv.length
    ends = (raw[1:] != raw[:-1]).nonzero()[0]
    bounds = np.empty(len(ends) + 2, dtype=np.intp)
    bounds[0] = 0
    np.add(ends, 1, out=bounds[1:-1])
    bounds[-1] = n
    starts = bounds[:-1]
    lengths = bounds[1:] - starts
    if n > _RUN_MAX and lengths.max() > _RUN_MAX:
        starts, lengths = _split_long_runs(starts, lengths)
    records = np.empty(len(lengths), dtype=_RLE_RECORD)
    records["count"] = lengths
    records["byte"] = raw[starts]
    return records.tobytes(), bv.length


def _split_long_runs(starts: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Runs cut into records of at most 0xFFFF bytes: full records, then
    the remainder, each record keeping its run's start."""
    pieces = (lengths + (_RUN_MAX - 1)) // _RUN_MAX
    run = np.repeat(np.arange(len(lengths)), pieces)
    counts = np.full(len(run), _RUN_MAX, dtype=np.intp)
    counts[np.cumsum(pieces) - 1] = lengths - (pieces - 1) * _RUN_MAX
    return starts[run], counts


def rle_decompress(payload: bytes, length: int) -> BitVector:
    """Inverse of :func:`rle_compress`."""
    buf = np.frombuffer(payload, dtype=np.uint8)
    if len(buf) % 3:
        raise IndexError_(
            f"corrupt RLE payload: {len(buf)} bytes is not a whole number of records"
        )
    records = buf.reshape(-1, 3)
    runs = records[:, 0].astype(np.int64) | (records[:, 1].astype(np.int64) << 8)
    packed = np.repeat(records[:, 2], runs)
    expected = (length + 7) // 8
    if len(packed) != expected:
        raise IndexError_(
            f"corrupt RLE payload: {len(packed)} bytes for length {length}"
        )
    return BitVector(packed, length)
