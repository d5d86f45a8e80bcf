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
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.columnar.block import Block, ChunkStats, ColumnChunk
from repro.columnar.encoding import (
    BitPackedEncoding,
    DeltaEncoding,
    DictionaryEncoding,
    PlainEncoding,
    RunLengthEncoding,
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

    def column(elements):
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
    assert _same(reader.values(), decoded)
    assert _same(reader.take(rows), decoded[rows])
    for atom in atoms:
        expected = np.asarray(atom.evaluate(decoded), dtype=np.bool_)
        assert _same(reader.map_bool(atom.evaluate), expected), atom
        assert _same(reader.map_bool(atom.evaluate, rows), expected[rows]), atom
        # A fresh reader too: nothing above may depend on a cached decode.
        assert _same(chunk.reader().map_bool(atom.evaluate), expected), atom


@given(cases())
def test_results_are_writable_and_outlive_the_payload(case):
    dtype, array, codec, atoms = case
    chunk = _chunk(dtype, array, codec, buffer_type=bytearray)
    rows = np.arange(len(array))[::2]
    reader = chunk.reader()
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
