"""Bloom filter behaviour: no false negatives, bounded false positives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.bloom import BloomFilter
from repro.errors import StorageError


def test_no_false_negatives():
    bf = BloomFilter(expected_items=100)
    items = [f"key{i}" for i in range(100)]
    bf.update(items)
    assert all(bf.might_contain(x) for x in items)


def test_false_positive_rate_reasonable():
    bf = BloomFilter(expected_items=1000, false_positive_rate=0.01)
    bf.update(f"in{i}" for i in range(1000))
    fp = sum(bf.might_contain(f"out{i}") for i in range(5000))
    assert fp / 5000 < 0.05  # generous bound over the 1% design point


def test_empty_filter_contains_nothing_probably():
    bf = BloomFilter(expected_items=10)
    assert not bf.might_contain("anything")


def test_invalid_rate_rejected():
    with pytest.raises(StorageError):
        BloomFilter(10, false_positive_rate=1.5)


def test_serialization_round_trip():
    bf = BloomFilter(expected_items=50)
    bf.update(["a", "b", "c"])
    back = BloomFilter.from_bytes(bf.to_bytes())
    assert back.might_contain("a") and back.might_contain("c")
    assert back.num_bits == bf.num_bits and back.num_hashes == bf.num_hashes


def test_handles_non_string_values():
    bf = BloomFilter(expected_items=10)
    bf.add(42)
    bf.add(3.14)
    assert bf.might_contain(42) and bf.might_contain(3.14)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.text(max_size=20), max_size=80))
def test_property_membership_after_insert(items):
    bf = BloomFilter(expected_items=max(len(items), 1))
    bf.update(items)
    assert all(bf.might_contain(x) for x in items)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.text(max_size=8), st.integers(), st.floats(allow_nan=False)), max_size=60))
def test_update_equals_add_in_a_loop(values):
    one, other = BloomFilter(expected_items=32), BloomFilter(expected_items=32)
    one.update(values)
    for v in values:
        other.add(v)
    assert one.count == other.count == len(values)
    assert one.to_bytes() == other.to_bytes()
