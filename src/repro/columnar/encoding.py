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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.columnar.schema import DataType
from repro.errors import StorageError

_U32 = "<I"
_U32_SIZE = 4


def _pack_strings(values: Sequence[str]) -> bytes:
    """Offsets + concatenated UTF-8 payload."""
    blobs = list(map(str.encode, values))
    ends = np.cumsum(list(map(len, blobs)), dtype=np.int64)
    if len(ends) and ends[-1] > 0xFFFFFFFF:
        raise StorageError("string chunk exceeds the 4 GiB offset range")
    return b"".join([struct.pack(_U32, len(blobs)), ends.astype("<u4").tobytes(), *blobs])


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


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``arrays``, made read-only: reader parts are shared by every
    reader of a chunk."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


class ChunkReader:
    """Encoding-aware access to one column chunk.

    With ``d`` the fully decoded array, ``values()`` is ``d``,
    ``take(rows)`` is ``d[rows]`` and ``map_bool(fn)`` is ``fn(d)`` as
    booleans — exactly, provided ``fn`` is *elementwise* (row ``i`` of
    its result depends on row ``i`` of its input alone) and ``rows`` is
    an integer id array.  ``rows`` is never a boolean mask: the kernels
    gather with ``take``, which would read a mask as the ids 0 and 1.
    Subclasses answer from the encoded form (a numeric dictionary no
    smaller than plain, from its decoded copy); this one decodes once,
    on first use.

    ``fn`` may be handed a read-only view over the chunk's payload, or
    over a part shared by every reader of the chunk, and must not keep
    or write to it.  No result aliases the payload, and
    ``take``/``map_bool`` results are fresh writable arrays.  ``values()``
    is decoded once and *shared*: every call on one reader returns the
    same array, so callers must not write to it in place (copy first).
    The reader itself is valid for as long as its chunk's payload
    buffer is.

    Subclasses set ``_decode`` and ``_full`` themselves rather than
    through ``ChunkReader.__init__`` (one frame less per column a task
    reads).
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

    def map_bool(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        return np.asarray(fn(self.values()), dtype=np.bool_)


class _ViewReader(ChunkReader):
    """Plain numerics: work on the zero-copy ``frombuffer`` view (or on
    the decoded copy of a dictionary read as plain)."""

    __slots__ = ("_view",)

    def __init__(self, decode, view: np.ndarray):
        self._decode = decode
        self._full = None
        self._view = view

    def take(self, rows):
        return self._view.take(rows)

    def map_bool(self, fn):
        return np.asarray(fn(self._view), dtype=np.bool_)


def _true_range(verdicts: np.ndarray) -> Optional[Tuple[int, int]]:
    """``(lo, hi)`` when ``verdicts`` is true on exactly ``[lo, hi)``
    (``lo == hi`` when it is true nowhere), else None.

    Three short-circuiting ``argmax``/``argmin`` scans: the first true,
    the first false after it, any true after that.  ``nonzero`` would
    write out every true index to learn the same.
    """
    if not verdicts.size:
        return 0, 0
    lo = int(verdicts.argmax())
    if not verdicts[lo]:
        return 0, 0
    hi = lo + int(verdicts[lo:].argmin())
    if hi == lo:  # true from ``lo`` to the end
        return lo, verdicts.size
    rest = verdicts[hi:]
    return None if rest[rest.argmax()] else (lo, hi)


class _DictionaryReader(ChunkReader):
    """Answer ``fn`` once on the uniques, map the verdicts onto the codes.

    When the true verdicts are one code range — always, for an order
    comparison on a numeric dictionary, whose uniques are sorted — that
    map is a compare on the codes; otherwise a ``take`` of the verdicts.  The
    range is read off the verdicts, so either way the answer is exactly
    ``fn(decode())``.
    """

    __slots__ = ("_uniques", "_codes")

    def __init__(self, decode, uniques: np.ndarray, codes: np.ndarray):
        self._decode = decode
        self._full = None
        self._uniques = uniques
        self._codes = codes

    def take(self, rows):
        # ``take`` with integer ids is 2-4x faster than fancy indexing
        # through the unaligned uint32 codes.
        return self._uniques.take(self._codes.take(rows))

    def map_bool(self, fn):
        codes = self._codes
        lut = np.asarray(fn(self._uniques), dtype=np.bool_)
        span = _true_range(lut)
        if span is None:
            return lut.take(codes)
        lo, hi = span
        if lo == hi:
            return np.zeros(codes.size, dtype=np.bool_)
        if lo == 0:
            return codes < hi
        if hi == lut.size:
            return codes >= lo
        return (codes >= lo) & (codes < hi)


class _RunLengthReader(ChunkReader):
    """Answer ``fn`` once per run, ``np.repeat`` the verdicts."""

    __slots__ = ("_runs", "_lengths")

    def __init__(self, decode, runs: np.ndarray, lengths: np.ndarray):
        self._decode = decode
        self._full = None
        self._runs = runs
        self._lengths = lengths

    def map_bool(self, fn):
        return np.repeat(np.asarray(fn(self._runs), dtype=np.bool_), self._lengths)


class Encoding:
    """Base codec.  Subclasses set :attr:`tag` (one byte on the wire).

    ``payload`` is any bytes-like object; :meth:`Block.from_bytes` hands
    codecs ``memoryview`` slices of the block buffer.
    """

    tag: int = -1
    name: str = "base"

    def encode(self, array: np.ndarray, facts: Optional["ColumnFacts"] = None) -> bytes:
        """Encode ``array``; ``facts``, when the caller already has them
        for this very array, spare recomputing runs and distinct values."""
        raise NotImplementedError

    def decode(self, payload, count: int) -> np.ndarray:
        """Fully materialize: a fresh writable array of ``count`` values."""
        raise NotImplementedError

    def reader_parts(self, payload, count: int) -> Tuple[np.ndarray, ...]:
        """What :meth:`reader` answers from, read off ``payload`` once:
        read-only arrays (views where they can be), ``()`` where nothing
        short of the full decode helps."""
        return ()

    def reader(
        self, parts: Tuple[np.ndarray, ...], decode: Callable[[], np.ndarray]
    ) -> ChunkReader:
        """A :class:`ChunkReader` over this codec's :meth:`reader_parts`;
        ``decode`` is the chunk's own full materialization (used where
        nothing cheaper applies)."""
        return ChunkReader(decode)

class PlainEncoding(Encoding):
    """Raw little-endian buffer (strings: offsets + UTF-8)."""

    tag = 0
    name = "plain"

    def encode(self, array: np.ndarray, facts: Optional["ColumnFacts"] = None) -> bytes:
        if _is_string(array):
            return b"s" + _pack_strings(array.tolist())
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

    def reader_parts(self, payload, count):
        return () if payload[:1] == b"s" else _frozen(self.read(payload, count))

    def reader(self, parts, decode):
        return _ViewReader(decode, *parts) if parts else ChunkReader(decode)


_PLAIN = PlainEncoding()


class RunLengthEncoding(Encoding):
    """(run_length, value) pairs — wins on sorted or low-churn columns."""

    tag = 1
    name = "rle"

    def encode(self, array: np.ndarray, facts: Optional["ColumnFacts"] = None) -> bytes:
        return self.encode_runs(*(facts or ColumnFacts(array)).runs)

    @staticmethod
    def encode_runs(values: np.ndarray, lengths: np.ndarray) -> bytes:
        vbytes = _PLAIN.encode(values)
        lbytes = np.asarray(lengths, dtype=np.uint32).tobytes()
        return struct.pack("<II", len(lengths), len(vbytes)) + vbytes + lbytes

    def decode(self, payload, count: int) -> np.ndarray:
        return np.repeat(*self.decode_parts(payload))

    def decode_parts(self, payload) -> Tuple[np.ndarray, np.ndarray]:
        """``(run values, run lengths)``, both read in place."""
        nruns, vlen = struct.unpack_from("<II", payload, 0)
        values = _PLAIN.read(memoryview(payload)[8 : 8 + vlen], nruns)
        lengths = np.frombuffer(payload, dtype=np.uint32, count=nruns, offset=8 + vlen)
        return values, lengths

    def reader_parts(self, payload, count):
        return _frozen(*self.decode_parts(payload))

    def reader(self, parts, decode):
        return _RunLengthReader(decode, *parts)


class DictionaryEncoding(Encoding):
    """Distinct values + integer codes — wins on low-cardinality columns."""

    tag = 2
    name = "dictionary"

    def encode(self, array: np.ndarray, facts: Optional["ColumnFacts"] = None) -> bytes:
        uarr, codes = (facts or ColumnFacts(array)).dictionary
        ubytes = _PLAIN.encode(uarr)
        cbytes = np.asarray(codes, dtype=np.uint32).tobytes()
        return struct.pack("<II", len(uarr), len(ubytes)) + ubytes + cbytes

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

    def reader_parts(self, payload, count):
        """``(uniques, codes)``; a numeric dictionary no smaller than its
        plain form gives ``(decoded,)``, gathered once, instead."""
        uniques, codes = self.decode_parts(payload, count)
        size = uniques.itemsize
        if uniques.dtype != object and uniques.size * size + _U32_SIZE * count >= count * size:
            return _frozen(uniques.take(codes))
        return _frozen(uniques, codes)

    def reader(self, parts, decode):
        if parts[1:]:
            return _DictionaryReader(decode, *parts)
        return _ViewReader(parts[0].copy, *parts)  # read as plain; values() copies


class DeltaEncoding(Encoding):
    """First value + run-length-encoded deltas — wins on sorted or
    near-arithmetic integer columns (timestamps, sequence ids).

    Deltas use wrapping int64 arithmetic, so the cumulative-sum decode is
    exact even when differences overflow (modular inverse).
    """

    tag = 4
    name = "delta"

    def encode(self, array: np.ndarray, facts: Optional["ColumnFacts"] = None) -> bytes:
        if not np.issubdtype(array.dtype, np.integer):
            raise StorageError("delta encoding requires an integer array")
        first = int(array[0]) if len(array) else 0
        runs = (facts or ColumnFacts(array)).delta_runs
        return struct.pack("<q", first) + RunLengthEncoding.encode_runs(*runs)

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

    def encode(self, array: np.ndarray, facts: Optional["ColumnFacts"] = None) -> bytes:
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


#: Row 0 starts a run.
_FIRST_RUN = np.ones(1, dtype=np.bool_)


def run_length_split(array: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split an array into (run values, run lengths): one neighbour
    compare gives the run starts, the starts and the end the lengths
    (no Python list is made into an array on the way)."""
    n = len(array)
    if n == 0:
        return array[:0], np.empty(0, dtype=np.uint32)
    if _is_string(array):
        change = np.ones(n, dtype=bool)
        change[1:] = array[1:] != array[:-1]
    else:
        change = np.concatenate((_FIRST_RUN, array[1:] != array[:-1]))
    starts = change.nonzero()[0]
    bounds = np.empty(len(starts) + 1, dtype=np.intp)
    bounds[:-1] = starts
    bounds[-1] = n
    return array[starts], np.diff(bounds).astype(np.uint32)


#: Rows of a column the codec chooser looks at for its distinct-value estimate.
CHOOSER_SAMPLE_ROWS = 4096


class _fact:
    """``functools.cached_property`` without its per-first-access lock
    (Python 3.11 takes an ``RLock`` there, a few µs on every fact of
    every column): the first access stores the value in the instance
    ``__dict__``, which later accesses read."""

    def __init__(self, compute: Callable):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, facts, owner=None):
        if facts is None:
            return self
        value = facts.__dict__[self.name] = self.compute(facts)
        return value


class ColumnFacts:
    """What the codec chooser, the chunk statistics and the codecs each
    ask of one column, computed at most once.

    Every fact is lazy, so a column pays only for what its type and its
    chosen codec need; :func:`choose_encoding` forgets the runs the chosen
    codec will not read (a later access recomputes them).  String columns
    (object arrays) are uniqued in Python — numpy's fixed-width unicode
    arrays silently strip trailing NULs, corrupting round-trips — but per
    distinct value, not per row.
    """

    def __init__(self, array: np.ndarray):
        self.array = array

    @_fact
    def runs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(run values, run lengths)``."""
        return run_length_split(self.array)

    @_fact
    def delta_runs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Runs of the wrapping int64 differences between neighbours."""
        values = self.array.astype(np.int64, copy=False)
        return run_length_split(values[1:] - values[:-1])

    @_fact
    def strings(self) -> List[str]:
        """A string column as a Python list."""
        return self.array.tolist()

    @_fact
    def first_seen(self) -> Dict[str, int]:
        """A string column's distinct values, each mapped to its rank in
        first-appearance order."""
        distinct = dict.fromkeys(self.strings)
        return dict(zip(distinct, range(len(distinct))))

    @_fact
    def dictionary(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(uniques, codes)`` with ``uniques[codes]`` equal to the column:
        strings in first-appearance order, numerics sorted."""
        if not _is_string(self.array):
            return np.unique(self.array, return_inverse=True)
        code_of = self.first_seen
        uniques = np.empty(len(code_of), dtype=object)
        uniques[:] = list(code_of)
        codes = np.fromiter(
            map(code_of.__getitem__, self.strings), dtype=np.uint32, count=len(self.strings)
        )
        return uniques, codes

    @_fact
    def distinct_count(self) -> int:
        """Exact number of distinct values in the whole column."""
        array = self.array
        if _is_string(array):
            return len(self.first_seen)
        if "dictionary" in self.__dict__:  # the codec already paid for it
            return len(self.dictionary[0])
        # A constant or ascending column has as many values as runs; NaN,
        # unequal to itself, is never ascending.
        nruns = len(self.runs[1])
        if nruns <= 1 or (array[1:] >= array[:-1]).all():
            return nruns
        # Where the column is small enough that the inverse costs nothing,
        # the dictionary codec may want it next.
        if len(array) <= CHOOSER_SAMPLE_ROWS:
            return len(self.dictionary[0])
        return len(np.unique(array))

    @_fact
    def sampled_distinct_count(self) -> int:
        """Distinct values among the first ``CHOOSER_SAMPLE_ROWS`` rows."""
        if len(self.array) <= CHOOSER_SAMPLE_ROWS:
            return self.distinct_count
        if _is_string(self.array):
            return len(set(self.strings[:CHOOSER_SAMPLE_ROWS]))
        return len(np.unique(self.array[:CHOOSER_SAMPLE_ROWS]))


def choose_encoding(
    array: np.ndarray, dtype: DataType, facts: Optional[ColumnFacts] = None
) -> Encoding:
    """Pick the smallest applicable codec for the array.

    Booleans always bit-pack.  For other types we compare plain size
    against cheap analytic estimates of RLE and dictionary sizes, so we
    avoid actually encoding three times.  ``facts`` are the caller's
    :class:`ColumnFacts` for this array, if it has them.
    """
    if dtype is DataType.BOOL:
        return _CODECS[BitPackedEncoding.tag]
    n = len(array)
    if n == 0:
        return _CODECS[PlainEncoding.tag]
    if facts is None:
        facts = ColumnFacts(array)
    nruns = len(facts.runs[0])
    uniq = facts.sampled_distinct_count
    if dtype is DataType.STRING:
        head = min(n, 64)
        item = sum(map(len, map(str, array[:head].tolist()))) / head + _U32_SIZE
    else:
        item = array.dtype.itemsize
    candidates = [
        (n * item, PlainEncoding.tag),
        (uniq * item + n * 4, DictionaryEncoding.tag),
        (nruns * item + nruns * 4, RunLengthEncoding.tag),
    ]
    if dtype is DataType.INT64 and n > 1:
        dvalues, dlengths = facts.delta_runs
        delta_size = 8 + len(dvalues) * array.dtype.itemsize + len(dlengths) * 4
        candidates.append((delta_size, DeltaEncoding.tag))
    best = min(candidates)[1]
    # The chosen codec reads at most one kind of runs (and the statistics
    # read the dictionary when that is the codec): forget the others, a
    # column's worth each, before the codec builds its payload.
    if best != DeltaEncoding.tag:
        facts.__dict__.pop("delta_runs", None)
    if best == DictionaryEncoding.tag:
        facts.__dict__.pop("runs", None)
    return _CODECS[best]
