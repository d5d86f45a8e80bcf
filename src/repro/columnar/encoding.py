"""Column encodings: plain, run-length, dictionary, bit-packed.

Feisu "organizes data sets into partitions using a compression-friendly
columnar format" (§I).  Each column chunk in a block is stored under one
of these encodings; :func:`choose_encoding` picks the cheapest one for an
array, which is the "compression-friendly" property the paper relies on.

All codecs are self-describing round-trippers::

    payload = codec.encode(array)
    array2  = codec.decode(payload, len(array))
    assert (array == array2).all()

Strings travel as UTF-8 with an offsets vector; numerics as little-endian
numpy buffers.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.schema import DataType
from repro.errors import StorageError

_U32 = "<I"
_U32_SIZE = 4


def _pack_strings(values: Sequence[str]) -> bytes:
    """Offsets + concatenated UTF-8 payload."""
    blobs = [v.encode("utf-8") for v in values]
    out = [struct.pack(_U32, len(blobs))]
    offset = 0
    for b in blobs:
        offset += len(b)
        out.append(struct.pack(_U32, offset))
    out.extend(blobs)
    return b"".join(out)


def _unpack_strings(payload, pos: int = 0) -> np.ndarray:
    (count,) = struct.unpack_from(_U32, payload, pos)
    ends = np.frombuffer(payload, dtype=np.uint32, count=count, offset=pos + _U32_SIZE).tolist()
    start = pos + _U32_SIZE * (count + 1)
    blob = bytes(payload[start : start + (ends[-1] if ends else 0)])
    arr = np.empty(count, dtype=object)
    arr[:] = [blob[a:b].decode("utf-8") for a, b in zip([0] + ends, ends)]
    return arr


def _is_string(array: np.ndarray) -> bool:
    return array.dtype == object


class ChunkReader:
    """Encoding-aware access to one column chunk.

    With ``d`` the fully decoded array, ``values()`` is ``d``,
    ``take(rows)`` is ``d[rows]`` and ``map_bool(fn, rows)`` is
    ``fn(d)`` (``fn(d[rows])`` when ``rows`` is given) as booleans —
    exactly, provided ``fn`` is *elementwise* (row ``i`` of its result
    depends on row ``i`` of its input alone) and ``rows`` is an integer
    index array.  Subclasses answer from the encoded form; this one
    decodes once, on first use.

    ``fn`` may be handed a read-only view over the chunk's payload and
    must not keep or write to it.  No result aliases the payload, and
    ``take``/``map_bool`` results are fresh writable arrays.  ``values()``
    is decoded once and *shared*: every call on one reader returns the
    same array, so callers must not write to it in place (copy first).
    The reader itself is valid for as long as its chunk's payload
    buffer is.
    """

    __slots__ = ("_decode", "_full")

    def __init__(self, decode: Callable[[], np.ndarray]):
        self._decode = decode
        self._full: Optional[np.ndarray] = None

    def values(self) -> np.ndarray:
        if self._full is None:
            self._full = self._decode()
        return self._full

    def take(self, rows: np.ndarray) -> np.ndarray:
        return self.values()[rows]

    def map_bool(self, fn: Callable[[np.ndarray], np.ndarray], rows=None) -> np.ndarray:
        values = self.values()
        return np.asarray(fn(values if rows is None else values[rows]), dtype=np.bool_)


class _ViewReader(ChunkReader):
    """Plain numerics: work on the zero-copy ``frombuffer`` view."""

    __slots__ = ("_view",)

    def __init__(self, decode, view: np.ndarray):
        ChunkReader.__init__(self, decode)
        self._view = view

    def take(self, rows):
        return self._view[rows]

    def map_bool(self, fn, rows=None):
        view = self._view
        return np.asarray(fn(view if rows is None else view[rows]), dtype=np.bool_)


class _DictionaryReader(ChunkReader):
    """Answer ``fn`` once on the uniques, map it through the codes."""

    __slots__ = ("_uniques", "_codes")

    def __init__(self, decode, uniques: np.ndarray, codes: np.ndarray):
        ChunkReader.__init__(self, decode)
        self._uniques = uniques
        self._codes = codes

    def take(self, rows):
        return self._uniques[self._codes[rows]]

    def map_bool(self, fn, rows=None):
        if rows is not None and len(rows) < len(self._uniques):
            return np.asarray(fn(self.take(rows)), dtype=np.bool_)
        lut = np.asarray(fn(self._uniques), dtype=np.bool_)
        return lut[self._codes if rows is None else self._codes[rows]]


class _RunLengthReader(ChunkReader):
    """Answer ``fn`` once per run, ``np.repeat`` the verdicts."""

    __slots__ = ("_runs", "_lengths")

    def __init__(self, decode, runs: np.ndarray, lengths: np.ndarray):
        ChunkReader.__init__(self, decode)
        self._runs = runs
        self._lengths = lengths

    def map_bool(self, fn, rows=None):
        full = np.repeat(np.asarray(fn(self._runs), dtype=np.bool_), self._lengths)
        return full if rows is None else full[rows]


class Encoding:
    """Base codec.  Subclasses set :attr:`tag` (one byte on the wire).

    ``payload`` is any bytes-like object; :meth:`Block.from_bytes` hands
    codecs ``memoryview`` slices of the block buffer.
    """

    tag: int = -1
    name: str = "base"

    def encode(self, array: np.ndarray) -> bytes:
        raise NotImplementedError

    def decode(self, payload, count: int) -> np.ndarray:
        """Fully materialize: a fresh writable array of ``count`` values."""
        raise NotImplementedError

    def reader(self, payload, count: int, decode: Callable[[], np.ndarray]) -> ChunkReader:
        """A :class:`ChunkReader` over ``payload``; ``decode`` is the
        chunk's own full materialization (used where nothing cheaper
        applies)."""
        return ChunkReader(decode)

    def encoded_size(self, array: np.ndarray) -> int:
        """Size estimate used by :func:`choose_encoding` (exact here)."""
        return len(self.encode(array))


class PlainEncoding(Encoding):
    """Raw little-endian buffer (strings: offsets + UTF-8)."""

    tag = 0
    name = "plain"

    def encode(self, array: np.ndarray) -> bytes:
        if _is_string(array):
            return b"s" + _pack_strings(list(array))
        return b"n" + array.dtype.str.encode() + b"\x00" + array.tobytes()

    def decode(self, payload, count: int) -> np.ndarray:
        values = self.read(payload, count)
        return values if values.dtype == object else values.copy()

    def read(self, payload, count: int) -> np.ndarray:
        """Like :meth:`decode`, but numerics come back as a zero-copy
        read-only view over ``payload`` (any fancy-indexed gather off it
        is a fresh writable array).  ``frombuffer`` with an explicit
        offset skips the tiny header without slicing the buffer."""
        if payload[:1] == b"s":
            return _unpack_strings(payload, 1)
        sep = bytes(payload[:32]).index(b"\x00", 1)
        dtype = np.dtype(str(payload[1:sep], "ascii"))
        return np.frombuffer(payload, dtype=dtype, count=count, offset=sep + 1)

    def reader(self, payload, count, decode):
        if payload[:1] == b"s":
            return ChunkReader(decode)
        return _ViewReader(decode, self.read(payload, count))


_PLAIN = PlainEncoding()


class RunLengthEncoding(Encoding):
    """(run_length, value) pairs — wins on sorted or low-churn columns."""

    tag = 1
    name = "rle"

    def encode(self, array: np.ndarray) -> bytes:
        values, lengths = run_length_split(array)
        plain = PlainEncoding()
        vbytes = plain.encode(values)
        lbytes = np.asarray(lengths, dtype=np.uint32).tobytes()
        return struct.pack(_U32, len(lengths)) + struct.pack(_U32, len(vbytes)) + vbytes + lbytes

    def decode(self, payload, count: int) -> np.ndarray:
        return np.repeat(*self.decode_parts(payload))

    def decode_parts(self, payload) -> Tuple[np.ndarray, np.ndarray]:
        """``(run values, run lengths)``, both read in place."""
        nruns, vlen = struct.unpack_from("<II", payload, 0)
        values = _PLAIN.read(memoryview(payload)[8 : 8 + vlen], nruns)
        lengths = np.frombuffer(payload, dtype=np.uint32, count=nruns, offset=8 + vlen)
        return values, lengths

    def reader(self, payload, count, decode):
        return _RunLengthReader(decode, *self.decode_parts(payload))


class DictionaryEncoding(Encoding):
    """Distinct values + integer codes — wins on low-cardinality columns."""

    tag = 2
    name = "dictionary"

    def encode(self, array: np.ndarray) -> bytes:
        if _is_string(array):
            # Python-level uniquing: numpy's fixed-width unicode arrays
            # silently strip trailing NULs, corrupting round-trips.
            mapping: dict = {}
            uniques: list = []
            codes = np.empty(len(array), dtype=np.uint32)
            for i, v in enumerate(array):
                idx = mapping.get(v)
                if idx is None:
                    idx = len(uniques)
                    mapping[v] = idx
                    uniques.append(v)
                codes[i] = idx
            uarr = np.empty(len(uniques), dtype=object)
            for i, u in enumerate(uniques):
                uarr[i] = u
        else:
            uarr, codes = np.unique(array, return_inverse=True)
        plain = PlainEncoding()
        ubytes = plain.encode(uarr)
        cbytes = np.asarray(codes, dtype=np.uint32).tobytes()
        return (
            struct.pack(_U32, len(uarr)) + struct.pack(_U32, len(ubytes)) + ubytes + cbytes
        )

    def decode(self, payload, count: int) -> np.ndarray:
        uarr, codes = self.decode_parts(payload, count)
        return uarr[codes]

    def decode_parts(self, payload, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(uniques, codes)``, both read in place (no byte-slice copy
        of the multi-megabyte buffer); ``decode()`` is ``uniques[codes]``."""
        nuniq, ulen = struct.unpack_from("<II", payload, 0)
        uarr = _PLAIN.read(memoryview(payload)[8 : 8 + ulen], nuniq)
        codes = np.frombuffer(payload, dtype=np.uint32, count=count, offset=8 + ulen)
        return uarr, codes

    def reader(self, payload, count, decode):
        return _DictionaryReader(decode, *self.decode_parts(payload, count))


class DeltaEncoding(Encoding):
    """First value + run-length-encoded deltas — wins on sorted or
    near-arithmetic integer columns (timestamps, sequence ids).

    Deltas use wrapping int64 arithmetic, so the cumulative-sum decode is
    exact even when differences overflow (modular inverse).
    """

    tag = 4
    name = "delta"

    def encode(self, array: np.ndarray) -> bytes:
        if not np.issubdtype(array.dtype, np.integer):
            raise StorageError("delta encoding requires an integer array")
        if len(array) == 0:
            return struct.pack("<q", 0) + RunLengthEncoding().encode(array)
        with np.errstate(over="ignore"):
            deltas = np.diff(array.astype(np.int64))
        first = struct.pack("<q", int(array[0]))
        return first + RunLengthEncoding().encode(deltas)

    def decode(self, payload, count: int) -> np.ndarray:
        (first,) = struct.unpack_from("<q", payload, 0)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        deltas = RunLengthEncoding().decode(memoryview(payload)[8:], count - 1)
        out = np.empty(count, dtype=np.int64)
        out[0] = first
        if count > 1:
            with np.errstate(over="ignore"):
                np.cumsum(deltas, out=out[1:])
                out[1:] += first
        return out


class BitPackedEncoding(Encoding):
    """One bit per value — for BOOL columns (and SmartIndex vectors)."""

    tag = 3
    name = "bitpacked"

    def encode(self, array: np.ndarray) -> bytes:
        if array.dtype != np.bool_:
            raise StorageError("bit-packing requires a boolean array")
        return np.packbits(array).tobytes()

    def decode(self, payload, count: int) -> np.ndarray:
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=count)
        return bits.astype(np.bool_)


_CODECS: Dict[int, Encoding] = {
    c.tag: c
    for c in (
        PlainEncoding(),
        RunLengthEncoding(),
        DictionaryEncoding(),
        BitPackedEncoding(),
        DeltaEncoding(),
    )
}


def codec_by_tag(tag: int) -> Encoding:
    try:
        return _CODECS[tag]
    except KeyError:
        raise StorageError(f"unknown encoding tag {tag}") from None


def run_length_split(array: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split an array into (run values, run lengths)."""
    n = len(array)
    if n == 0:
        return array[:0], np.empty(0, dtype=np.uint32)
    if _is_string(array):
        change = np.ones(n, dtype=bool)
        change[1:] = array[1:] != array[:-1]
    else:
        change = np.concatenate(([True], array[1:] != array[:-1]))
    starts = np.flatnonzero(change)
    lengths = np.diff(np.concatenate((starts, [n]))).astype(np.uint32)
    return array[starts], lengths


def choose_encoding(array: np.ndarray, dtype: DataType) -> Encoding:
    """Pick the smallest applicable codec for the array.

    Booleans always bit-pack.  For other types we compare plain size
    against cheap analytic estimates of RLE and dictionary sizes, so we
    avoid actually encoding three times.
    """
    if dtype is DataType.BOOL:
        return _CODECS[BitPackedEncoding.tag]
    n = len(array)
    if n == 0:
        return _CODECS[PlainEncoding.tag]
    values, lengths = run_length_split(array)
    nruns = len(values)
    if dtype is DataType.STRING:
        avg = sum(len(str(v)) for v in array[: min(n, 64)]) / min(n, 64) + _U32_SIZE
        plain_size = n * avg
        uniq = len(set(array[: min(n, 4096)].tolist()))
        dict_size = uniq * avg + n * 4
        rle_size = nruns * avg + nruns * 4
    else:
        item = array.dtype.itemsize
        plain_size = n * item
        uniq = len(np.unique(array[: min(n, 4096)]))
        dict_size = uniq * item + n * 4
        rle_size = nruns * item + nruns * 4
    candidates = [
        (plain_size, PlainEncoding.tag),
        (dict_size, DictionaryEncoding.tag),
        (rle_size, RunLengthEncoding.tag),
    ]
    if dtype is DataType.INT64 and n > 1:
        with np.errstate(over="ignore"):
            deltas = np.diff(array.astype(np.int64))
        _dv, dlen = run_length_split(deltas)
        delta_size = 8 + len(_dv) * array.dtype.itemsize + len(dlen) * 4
        candidates.append((delta_size, DeltaEncoding.tag))
    best = min(candidates)
    return _CODECS[best[1]]
