"""Property: a :class:`ChunkReader` equals the same operation on
``ColumnChunk.decode()``.

Hypothesis drives every codec over every dtype it accepts — integers,
NaN-bearing floats, strings with empties and trailing NULs, booleans;
0- and 1-row chunks; low-cardinality and near-unique values — and every
atom operator.  The contract (docs/API.md, columnar section):
``map_bool(atom.evaluate)`` is ``atom.evaluate(decode())``,
``take(rows)`` is ``decode()[rows]``, ``values()`` is ``decode()``,
every result is writable and survives the payload buffer being
overwritten, ``take``/``map_bool`` results are fresh and ``values()`` is
one array shared per reader.

A numeric dictionary no smaller than its plain form is read as plain,
from one decoded copy shared by the chunk's readers; the property draws
dictionary chunks on both sides of that threshold.
"""

import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st

from repro.columnar.block import Block, ChunkStats, ColumnChunk
from repro.columnar.encoding import (
    BitPackedEncoding,
    DeltaEncoding,
    DictionaryEncoding,
    PlainEncoding,
    RunLengthEncoding,
    _DictionaryReader,
    _ViewReader,
)
from repro.columnar.schema import DataType, Schema
from repro.planner.cnf import AtomicPredicate
from repro.sql.ast import BinaryOperator as Op

settings.register_profile("reader", deadline=None, max_examples=120)
settings.load_profile("reader")

COMPARISONS = (Op.EQ, Op.NE, Op.LT, Op.LE, Op.GT, Op.GE)
GENERAL = (PlainEncoding(), RunLengthEncoding(), DictionaryEncoding())

floats = st.one_of(st.floats(-4, 8, allow_nan=False), st.just(float("nan")))
#: Few distinct values (runs, small dictionaries) or nearly all distinct.
strings = st.one_of(
    st.sampled_from(["", "a", "ab", "ab\x00", "b\x00\x00", "abc"]),
    st.text(alphabet="abc\x00é", max_size=6),
)
ints = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40))


@st.composite
def cases(draw):
    """``(dtype, values array, codec, atoms to try)``."""
    kind = draw(st.sampled_from(["int", "float", "string", "bool"]))
    n = draw(st.sampled_from([0, 1, 2, 7, 40]))
    # A few distinct numerics keep a dictionary in code space, many read it as plain.
    few = kind in ("int", "float") and draw(st.booleans())

    def column(elements):
        if few:
            elements = st.sampled_from(draw(st.lists(elements, min_size=1, max_size=4)))
        return draw(st.lists(elements, min_size=n, max_size=n))

    if kind == "int":
        array = np.array(column(ints), dtype=np.int64)
        codecs, dtype = GENERAL + (DeltaEncoding(),), DataType.INT64
        atoms = [(op, draw(ints), False) for op in COMPARISONS]
    elif kind == "float":
        array = np.array(column(floats), dtype=np.float64)
        codecs, dtype = GENERAL, DataType.FLOAT64
        atoms = [(op, draw(floats), False) for op in COMPARISONS]
    elif kind == "string":
        array = np.empty(n, dtype=object)
        array[:] = column(strings)
        codecs, dtype = GENERAL, DataType.STRING
        literal = draw(strings)
        atoms = [(op, literal, False) for op in COMPARISONS]
        atoms += [(Op.CONTAINS, literal, False), (Op.CONTAINS, literal, True)]
    else:
        array = np.array(column(st.booleans()), dtype=np.bool_)
        codecs, dtype = GENERAL + (BitPackedEncoding(),), DataType.BOOL
        atoms = [(Op.EQ, True, False), (Op.NE, True, False)]
    codec = draw(st.sampled_from(codecs))
    return dtype, array, codec, [AtomicPredicate("c", *a) for a in atoms]


def _same(got: np.ndarray, expected: np.ndarray) -> bool:
    if got.dtype != expected.dtype or got.shape != expected.shape:
        return False
    if expected.dtype == object:
        return got.tolist() == expected.tolist()
    return np.array_equal(got, expected, equal_nan=expected.dtype.kind == "f")


def _chunk(dtype, array, codec, buffer_type=bytes) -> ColumnChunk:
    payload = buffer_type(codec.encode(array))
    return ColumnChunk("c", dtype, codec.tag, payload, ChunkStats(), len(array))


def _expected_reader(array, codec):
    """The reader class a chunk of ``array`` under ``codec`` must get, or
    None where the rule below does not decide it."""
    if not isinstance(codec, DictionaryEncoding):
        return None
    n, size = len(array), array.dtype.itemsize
    if array.dtype != object and len(np.unique(array)) * size + 4 * n >= n * size:
        return _ViewReader
    return _DictionaryReader


@given(cases(), st.data())
def test_reader_equals_decode(case, data):
    dtype, array, codec, atoms = case
    chunk = _chunk(dtype, array, codec)
    decoded = chunk.decode()
    assert _same(decoded, array)
    rows = np.array(
        data.draw(st.lists(st.integers(0, max(len(array) - 1, 0)), max_size=12))
        if len(array) else [],
        dtype=np.intp,
    )
    reader = chunk.reader()
    note(f"{codec.name} chunk read by {type(reader).__name__}")
    expected_reader = _expected_reader(array, codec)
    assert expected_reader is None or type(reader) is expected_reader
    assert _same(reader.values(), decoded)
    assert _same(reader.take(rows), decoded[rows])
    for atom in atoms:
        expected = np.asarray(atom.evaluate(decoded), dtype=np.bool_)
        assert _same(reader.map_bool(atom.evaluate), expected), atom
        # A fresh reader too: nothing above may depend on a cached decode.
        assert _same(chunk.reader().map_bool(atom.evaluate), expected), atom


@given(cases())
def test_results_are_writable_and_outlive_the_payload(case):
    dtype, array, codec, atoms = case
    chunk = _chunk(dtype, array, codec, buffer_type=bytearray)
    rows = np.arange(len(array))[::2]
    reader = chunk.reader()
    note(f"{codec.name} chunk read by {type(reader).__name__}")
    results = [reader.values(), reader.take(rows), chunk.decode()]
    results += [reader.map_bool(atom.evaluate) for atom in atoms]
    expected = [r.copy() for r in results]
    # values() is decoded once and shared per reader (so: do not write to
    # it in place); everything else is a fresh array on every call.
    shared = results[0]
    assert reader.values() is shared
    assert chunk.reader().values() is not shared
    for fresh in (reader.take(rows), *results[1:]):
        assert not np.shares_memory(fresh, shared)
    chunk.payload[:] = bytes(len(chunk.payload))  # scribble over the buffer
    for got, want in zip(results, expected):
        assert got.flags.writeable
        assert _same(got, want)


@given(cases())
def test_block_round_trip_serves_the_same_reader(case):
    """Through ``to_bytes``/``from_bytes`` chunk payloads are zero-copy
    ``memoryview`` slices of the block buffer; answers do not change and
    the wire bytes are reproduced exactly."""
    dtype, array, codec, atoms = case
    chunk = _chunk(dtype, array, codec)
    block = Block("b", Schema.of(c=dtype), {"c": chunk}, len(array))
    wire = block.to_bytes()
    loaded = Block.from_bytes(wire)
    assert isinstance(loaded.chunks["c"].payload, memoryview)
    assert loaded.to_bytes() == wire
    assert _same(loaded.column("c"), array)
    reader = loaded.chunks["c"].reader()
    for atom in atoms:
        assert _same(
            reader.map_bool(atom.evaluate), np.asarray(atom.evaluate(array), dtype=np.bool_)
        )


# -- code-range compares and ``take`` chains on leaf-shaped chunks ----------------
#
# A dictionary reader answers a predicate with a compare on the codes
# when the true verdicts over the uniques are one code range, and with a
# ``take`` of the verdicts otherwise; gathers are ``take`` chains.  These
# cases run on chunks parsed by ``Block.from_bytes`` (so every view is as
# unaligned as on a leaf) and large enough for near-unique columns.


def _loaded_reader(dtype, array, codec):
    """``(reader, decoded, wire)`` for ``array`` through a block buffer."""
    block = Block("b", Schema.of(c=dtype), {"c": _chunk(dtype, array, codec)}, len(array))
    wire = block.to_bytes()
    chunk = Block.from_bytes(wire).chunks["c"]
    return chunk.reader(), chunk.decode(), wire


def _assert_fresh(got, expected, wire, shared):
    assert _same(got, expected)
    assert got.flags.writeable
    assert not np.shares_memory(got, np.frombuffer(wire, dtype=np.uint8))
    assert not np.shares_memory(got, shared)


def _row_sets(n, n_uniques, rng):
    """Id arrays shorter and longer than the uniques."""
    short = np.sort(rng.choice(n, size=max(0, min(n, n_uniques - 1) // 2), replace=False))
    long = rng.integers(0, n, size=n_uniques + 5) if n else np.empty(0, dtype=np.intp)
    return [short.astype(np.intp), long, np.arange(n)[::3]]


#: Which of 16 sorted uniques hold: each verdict shape the reader tells apart.
VERDICT_SHAPES = {
    "empty": [],
    "all": list(range(16)),
    "prefix": list(range(5)),
    "suffix": list(range(9, 16)),
    "middle": list(range(4, 9)),
    "single": [7],
    "non_contiguous": [1, 3, 8, 15],
}


@pytest.mark.parametrize("kind", ["int", "string"])
@pytest.mark.parametrize("shape", sorted(VERDICT_SHAPES))
def test_dictionary_verdict_shapes(kind, shape):
    rng = np.random.default_rng(len(shape))
    keys = rng.integers(0, 16, 4096)
    if kind == "int":
        dtype, array = DataType.INT64, keys * 3 - 20
        chosen = np.array([k * 3 - 20 for k in VERDICT_SHAPES[shape]], dtype=np.int64)
    else:
        # String uniques are in first-appearance order, not sorted.
        dtype, array = DataType.STRING, np.array([f"v{k:02d}" for k in keys], dtype=object)
        chosen = np.array([f"v{k:02d}" for k in VERDICT_SHAPES[shape]], dtype=object)
    reader, decoded, wire = _loaded_reader(dtype, array, DictionaryEncoding())

    def fn(values):
        return np.isin(values, chosen)

    shared = reader.values()
    _assert_fresh(reader.map_bool(fn), fn(decoded), wire, shared)
    for rows in _row_sets(len(array), 16, rng):
        _assert_fresh(reader.take(rows), decoded[rows], wire, shared)


@st.composite
def near_unique_cases(draw):
    """Near-unique INT64 / FLOAT64 chunks of >= 4 096 rows (floats with
    NaN and both zeros) under the codecs a leaf reads through views."""
    kind = draw(st.sampled_from(["int", "float"]))
    n = draw(st.sampled_from([4096, 5003]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "int":
        array = rng.integers(-(2**40), 2**40, n)
        pivots = [int(array[rng.integers(n)]), 0, -(2**41)]
        dtype = DataType.INT64
    else:
        array = rng.random(n) * 100.0 - 50.0
        specials = rng.choice(n, size=30, replace=False)
        array[specials[:10]] = np.nan
        array[specials[10:20]] = 0.0
        array[specials[20:]] = -0.0
        pivots = [float(array[rng.integers(n)]), 0.0, -0.0, float("nan")]
        dtype = DataType.FLOAT64
    codec = draw(st.sampled_from([PlainEncoding(), DictionaryEncoding()]))
    literal = draw(st.sampled_from(pivots))
    atoms = [AtomicPredicate("c", op, literal, False) for op in COMPARISONS]
    return dtype, array, codec, atoms, rng


@settings(max_examples=25)
@given(near_unique_cases())
def test_near_unique_chunks_from_bytes(case):
    dtype, array, codec, atoms, rng = case
    reader, decoded, wire = _loaded_reader(dtype, array, codec)
    assert _same(decoded, array)
    shared = reader.values()
    for atom in atoms:
        expected = np.asarray(atom.evaluate(decoded), dtype=np.bool_)
        _assert_fresh(reader.map_bool(atom.evaluate), expected, wire, shared)
    for rows in _row_sets(len(array), len(np.unique(array)), rng):
        _assert_fresh(reader.take(rows), decoded[rows], wire, shared)


# -- which reader a dictionary chunk gets -------------------------------------------
#
# A numeric dictionary whose uniques plus 4-byte codes take no fewer bytes
# than the plain values (for 8-byte types: at least half the rows
# distinct) is read as plain, from one decoded copy; a smaller one keeps
# the code-space reader, and so does every string dictionary.


def _dictionary_chunk(dtype, array):
    """A dictionary chunk of ``array`` as a leaf holds it (from bytes)."""
    block = Block("b", Schema.of(c=dtype), {"c": _chunk(dtype, array, DictionaryEncoding())},
                  len(array))
    return Block.from_bytes(block.to_bytes()).chunks["c"]


def _with_distinct(n, distinct, rng):
    """``n`` shuffled int64 values with exactly ``distinct`` of them distinct."""
    values = np.arange(distinct, dtype=np.int64) * 7 - 1000
    return rng.permutation(np.concatenate([values, values[rng.integers(0, distinct, n - distinct)]]))


@pytest.mark.parametrize(
    "distinct, reader_class",
    # At exactly half the rows distinct the two forms are the same size:
    # "no smaller" reads as plain.
    [(1, _DictionaryReader), (16, _DictionaryReader), (4095, _DictionaryReader),
     (4096, _ViewReader), (4097, _ViewReader), (8192, _ViewReader)],
)
def test_numeric_dictionary_reader_follows_its_size(distinct, reader_class):
    rng = np.random.default_rng(distinct)
    array = _with_distinct(8192, distinct, rng)
    for dtype, column in ((DataType.INT64, array), (DataType.FLOAT64, array / 8.0)):
        reader = _dictionary_chunk(dtype, column).reader()
        assert type(reader) is reader_class
        rows = rng.integers(0, len(column), 100)
        pivot = column[rows[0]]
        assert _same(reader.take(rows), column[rows])
        assert _same(reader.map_bool(lambda v: v < pivot), column < pivot)


def test_near_unique_string_dictionary_stays_in_code_space():
    array = np.array([f"s{i}" for i in range(8192)], dtype=object)
    reader = _dictionary_chunk(DataType.STRING, array).reader()
    assert type(reader) is _DictionaryReader
    assert _same(reader.map_bool(lambda v: v == "s7"), array == "s7")


def test_readers_of_a_plain_read_dictionary_share_one_read_only_copy():
    array = _with_distinct(8192, 6000, np.random.default_rng(3))
    chunk = _dictionary_chunk(DataType.INT64, array)
    first, second = chunk.reader(), chunk.reader()
    (decoded,) = chunk._reader_parts
    assert first._view is decoded and second._view is decoded
    assert not decoded.flags.writeable
    assert decoded.nbytes <= len(chunk.payload)
    # values() is a fresh copy, once per reader, not the shared part.
    values = first.values()
    assert values.flags.writeable and not np.shares_memory(values, decoded)
    assert first.values() is values and second.values() is not values
    assert _same(values, array)
