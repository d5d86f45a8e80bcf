"""Property tests: SsdCache accounting and preference policy.

Hypothesis drives random operation sequences — get/put/prefer/unprefer/
invalidate over a small key space against a tiny capacity — and after
*every* step checks the cache's books against its own entry table:

* ``used_bytes`` equals the byte sum of resident entries and never
  exceeds capacity;
* hit/miss counters advance exactly per observed residency, where a line
  is resident for a ``get`` only if it holds the very object the
  simulated storage holds for the path now (a ``rewrite`` replaces that
  object behind the cache's back, and the stale line must be dropped);
* a non-preferred admission never displaces a resident preferred entry
  (the PR 5 inversion fix), while ``put`` return values stay truthful
  about residency.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.ssd_cache import SsdCache

settings.register_profile("ssd_cache", deadline=None, max_examples=120)
settings.load_profile("ssd_cache")

KEYS = ["/hot/a", "/hot/b", "/cold/a", "/cold/b", "/cold/c", "/x"]
PREFIXES = ["/hot", "/cold", "/x", "/"]

op_strategy = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(1, 24)),
    st.tuples(st.just("get"), st.sampled_from(KEYS), st.just(0)),
    st.tuples(st.just("prefer"), st.sampled_from(PREFIXES), st.just(0)),
    st.tuples(st.just("unprefer"), st.sampled_from(PREFIXES), st.just(0)),
    st.tuples(st.just("invalidate"), st.sampled_from(KEYS), st.just(0)),
    st.tuples(st.just("rewrite"), st.sampled_from(KEYS), st.integers(1, 24)),
)


def _check_books(cache: SsdCache) -> None:
    assert cache.used_bytes == sum(len(v) for v in cache._entries.values())
    assert cache.used_bytes <= cache.capacity_bytes
    assert cache.entry_count == len(cache._entries)


@given(
    ops=st.lists(op_strategy, min_size=1, max_size=60),
    capacity=st.integers(8, 48),
    admit_all=st.booleans(),
)
def test_random_sequences_keep_books_exact(ops, capacity, admit_all):
    cache = SsdCache(capacity, admit_preferred_only=not admit_all)
    stored = {key: b"" for key in KEYS}  # what storage holds per path
    expected_hits = 0
    expected_misses = 0
    for op, key, size in ops:
        if op == "put":
            data = stored[key] = key.encode()[:1] * size
            resident_preferred_before = {
                k for k in cache._entries if cache.is_preferred(k) and k != key
            }
            admitted = cache.put(key, data)
            if admitted:
                assert cache._entries[key] == data
            else:
                # Truthful rejection AND no stale bytes left behind.
                assert key not in cache._entries
            if not cache.is_preferred(key):
                # The inversion fix: a non-preferred admission never
                # displaces a resident preferred entry.
                for k in resident_preferred_before:
                    assert k in cache._entries
        elif op == "get":
            was_resident = cache._entries.get(key) is stored[key]
            hit = cache.get(key, stored[key])
            assert hit == was_resident
            if was_resident:
                expected_hits += 1
            else:
                expected_misses += 1
                assert key not in cache._entries  # a stale line is dropped
        elif op == "rewrite":
            stored[key] = key.encode()[:1] * size + b"'"
        elif op == "prefer":
            cache.prefer(key)
        elif op == "unprefer":
            cache.unprefer(key)
        elif op == "invalidate":
            cache.invalidate(key)
            assert key not in cache._entries
        _check_books(cache)
        assert cache.hits == expected_hits
        assert cache.misses == expected_misses
    stats = cache.stats()
    assert stats["hits"] == expected_hits and stats["misses"] == expected_misses
    if expected_hits + expected_misses:
        assert stats["miss_ratio"] == pytest.approx(
            expected_misses / (expected_hits + expected_misses)
        )


@given(
    ops=st.lists(op_strategy, min_size=1, max_size=40),
    capacity=st.integers(8, 48),
)
def test_preferred_only_mode_admits_only_preferred(ops, capacity):
    cache = SsdCache(capacity, admit_preferred_only=True)
    for op, key, size in ops:
        if op == "put":
            admitted = cache.put(key, b"z" * size)
            if admitted:
                assert cache.is_preferred(key)
        elif op == "get":
            cache.get(key, b"")
        elif op == "prefer":
            cache.prefer(key)
        elif op == "unprefer":
            cache.unprefer(key)
        elif op == "invalidate":
            cache.invalidate(key)
        _check_books(cache)


@given(ops=st.lists(op_strategy, min_size=1, max_size=40))
def test_is_preferred_memo_matches_prefix_scan(ops):
    cache = SsdCache(64, admit_preferred_only=False)
    for op, key, size in ops:
        if op == "put":
            cache.put(key, b"z" * size)
        elif op == "prefer":
            cache.prefer(key)
        elif op == "unprefer":
            cache.unprefer(key)
        for probe in KEYS:
            assert cache.is_preferred(probe) == any(
                probe.startswith(p) for p in cache.preferred_prefixes()
            )
