"""Property tests: BitVector algebra and popcount vs. pure-Python references.

The SmartIndex answers predicates straight out of these bit vectors
(Fig 6/7): AND for conjuncts, OR for disjunctive clauses, NOT for
complement hits, ``count()`` for result cardinality.  Every operation is
checked here against the obvious pure-Python list/`bin()` implementation,
including the tail-padding edge cases (lengths not divisible by 8, dirty
padding bits in arbitrary packed buffers) and the RLE codec's corruption
error paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.index.bitmap import BitVector, rle_compress, rle_decompress
from repro.index.smartindex import COMPRESS_THRESHOLD, SmartIndexEntry

settings.register_profile("bitmap", deadline=None, max_examples=80)
settings.load_profile("bitmap")

bit_lists = st.lists(st.booleans(), min_size=0, max_size=300)


def _popcount_reference(packed: bytes, length: int) -> int:
    """Pure-Python popcount of a packed big-endian bit buffer: walk every
    in-range bit index, ignoring the padding bits past ``length``."""
    return sum(
        1
        for i in range(length)
        if packed[i // 8] & (0x80 >> (i % 8))
    )


# -- round trip & popcount ---------------------------------------------------


@given(bits=bit_lists)
def test_bool_array_roundtrip(bits):
    bv = BitVector.from_bool_array(np.asarray(bits, dtype=bool))
    assert bv.length == len(bits)
    assert bv.to_bool_array().tolist() == bits


@given(bits=bit_lists)
def test_count_matches_pure_python_popcount(bits):
    bv = BitVector.from_bool_array(np.asarray(bits, dtype=bool))
    assert bv.count() == sum(bits)
    assert bv.count() == _popcount_reference(bv._bits.tobytes(), bv.length)  # noqa: SLF001
    assert bv.any() == any(bits)


@given(data=st.data())
def test_count_masks_dirty_padding_bits(data):
    """count() must be exact for *arbitrary* packed buffers — including
    ones whose padding bits beyond ``length`` are set (e.g. a complement
    produced upstream or a buffer sliced out of a larger vector)."""
    length = data.draw(st.integers(0, 200))
    nbytes = (length + 7) // 8
    raw = bytes(data.draw(st.lists(st.integers(0, 255), min_size=nbytes, max_size=nbytes)))
    bv = BitVector(np.frombuffer(raw, dtype=np.uint8).copy(), length)
    assert bv.count() == _popcount_reference(raw, length)


# -- bitwise algebra ---------------------------------------------------------


@given(data=st.data())
def test_and_or_not_match_elementwise_reference(data):
    n = data.draw(st.integers(0, 200))
    a = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    b = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    va = BitVector.from_bool_array(np.asarray(a, dtype=bool))
    vb = BitVector.from_bool_array(np.asarray(b, dtype=bool))
    assert (va & vb).to_bool_array().tolist() == [x and y for x, y in zip(a, b)]
    assert (va | vb).to_bool_array().tolist() == [x or y for x, y in zip(a, b)]
    assert (~va).to_bool_array().tolist() == [not x for x in a]


@given(data=st.data())
def test_de_morgan_and_complement_cardinality(data):
    n = data.draw(st.integers(0, 200))
    a = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    b = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    va = BitVector.from_bool_array(np.asarray(a, dtype=bool))
    vb = BitVector.from_bool_array(np.asarray(b, dtype=bool))
    assert ~(va & vb) == (~va | ~vb)
    assert ~(va | vb) == (~va & ~vb)
    # the complement-hit identity the Fig 7 rewrite relies on
    assert (~va).count() == n - va.count()
    assert (~~va) == va


@given(length=st.integers(0, 100))
def test_zeros_ones_constructors(length):
    assert BitVector.zeros(length).count() == 0
    assert BitVector.ones(length).count() == length
    assert BitVector.ones(length) == ~BitVector.zeros(length)


def test_length_mismatch_is_rejected():
    with pytest.raises(IndexError_):
        BitVector.zeros(8) & BitVector.zeros(9)
    with pytest.raises(IndexError_):
        BitVector.zeros(8) | BitVector.zeros(9)


def test_non_uint8_buffer_is_rejected():
    with pytest.raises(IndexError_):
        BitVector(np.zeros(2, dtype=np.int64), 16)


# -- RLE codec ---------------------------------------------------------------


@given(bits=bit_lists)
def test_rle_roundtrip_preserves_bits_and_count(bits):
    bv = BitVector.from_bool_array(np.asarray(bits, dtype=bool))
    payload, length = rle_compress(bv)
    back = rle_decompress(payload, length)
    assert back == bv
    assert back.count() == sum(bits)


@given(repeats=st.integers(1, 3))
def test_rle_roundtrip_beyond_uint16_run_limit(repeats):
    """Runs longer than 0xFFFF packed bytes must chunk and reassemble."""
    n_bits = (0xFFFF + 17) * 8 * repeats
    bv = BitVector.from_bool_array(np.ones(n_bits, dtype=bool))
    payload, length = rle_compress(bv)
    back = rle_decompress(payload, length)
    assert back.count() == n_bits == back.length


def test_rle_compression_wins_on_selective_predicates():
    # the paper's motivation: long zero runs collapse
    mask = np.zeros(64_000, dtype=bool)
    mask[123] = True
    bv = BitVector.from_bool_array(mask)
    payload, _ = rle_compress(bv)
    assert len(payload) < bv.nbytes / 100


@given(bits=bit_lists, extra=st.integers(1, 2))
def test_rle_rejects_torn_payload(bits, extra):
    bv = BitVector.from_bool_array(np.asarray(bits, dtype=bool))
    payload, length = rle_compress(bv)
    with pytest.raises(IndexError_):
        rle_decompress(payload + b"\x01" * extra, length)


@given(bits=st.lists(st.booleans(), min_size=1, max_size=300))
def test_rle_rejects_length_mismatch(bits):
    bv = BitVector.from_bool_array(np.asarray(bits, dtype=bool))
    payload, length = rle_compress(bv)
    with pytest.raises(IndexError_):
        rle_decompress(payload, length + 8)


# -- the one-pass RLE against the codec it replaced ------------------------------


def _parent_rle_compress(bv: BitVector):
    """The vectorised ``rle_compress`` the one-pass codec replaced, verbatim."""
    raw = bv._bits  # noqa: SLF001
    if len(raw) == 0:
        return b"", bv.length
    change = np.concatenate(([True], raw[1:] != raw[:-1]))
    starts = np.flatnonzero(change)
    lengths = np.diff(np.append(starts, len(raw)))
    # Runs longer than 0xFFFF split into full chunks plus a remainder;
    # records for all chunks are emitted in one vectorized pass.
    n_chunks = (lengths + 0xFFFE) // 0xFFFF
    total = int(n_chunks.sum())
    run_idx = np.repeat(np.arange(len(starts)), n_chunks)
    within = np.arange(total) - np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks)
    sizes = np.where(
        within == n_chunks[run_idx] - 1,
        lengths[run_idx] - (n_chunks[run_idx] - 1) * 0xFFFF,
        0xFFFF,
    ).astype(np.uint16)
    records = np.empty((total, 3), dtype=np.uint8)
    records[:, 0] = sizes & 0xFF  # count, little-endian uint16
    records[:, 1] = sizes >> 8
    records[:, 2] = raw[starts][run_idx]
    return records.tobytes(), bv.length


def _assert_codec_matches_parent(bv: BitVector) -> None:
    payload, length = rle_compress(bv)
    assert (payload, length) == _parent_rle_compress(bv)
    assert rle_decompress(payload, length) == bv
    entry = SmartIndexEntry.build("b", "c > 1", bv, now=0.0)
    want, _ = _parent_rle_compress(bv)
    if len(want) <= bv.nbytes * COMPRESS_THRESHOLD:
        assert entry.compressed == want and entry.raw is None
        assert entry.nbytes == len(want) + 96
    else:
        assert entry.compressed is None and entry.nbytes == bv.nbytes + 96
    assert entry.vector() == bv


@pytest.mark.parametrize("length", [0, 1, 7, 8, 9])
@pytest.mark.parametrize("fill", [False, True])
def test_rle_matches_parent_codec_at_short_lengths(length, fill):
    _assert_codec_matches_parent(BitVector.from_bool_array(np.full(length, fill)))


@given(data=st.data())
def test_rle_matches_parent_codec_on_random_vectors(data):
    """Random vectors: dense noise, selective masks and clustered runs, on
    lengths that are and are not whole bytes."""
    length = data.draw(st.integers(0, 3000))
    density = data.draw(st.sampled_from([0.0, 0.01, 0.3, 0.5, 0.99, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(length) < density
    if data.draw(st.booleans()):
        mask = np.sort(mask)  # one long run of each value
    _assert_codec_matches_parent(BitVector.from_bool_array(mask))


@pytest.mark.parametrize(
    "nbytes, head",
    [(0xFFFF, 0), (0xFFFF + 1, 0), (2 * 0xFFFF, 0), (2 * 0xFFFF + 5, 3), (3 * 0xFFFF + 1, 70_000)],
)
def test_rle_matches_parent_codec_past_the_uint16_run_limit(nbytes, head):
    """Runs of exactly, just past and several times 0xFFFF bytes, alone and
    behind a run that itself needs splitting."""
    mask = np.zeros(nbytes * 8, dtype=bool)
    mask[: head * 8] = True
    mask[-3] = True  # a short run at the tail
    _assert_codec_matches_parent(BitVector.from_bool_array(mask))
