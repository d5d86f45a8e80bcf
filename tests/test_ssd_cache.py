"""SSD data-cache semantics (§IV-B): LRU + manual preferences."""

import pytest

from repro.errors import StorageError
from repro.storage.ssd_cache import SsdCache


def test_invalid_capacity():
    with pytest.raises(StorageError):
        SsdCache(0)


def test_preferred_only_admission_default():
    cache = SsdCache(100)
    assert not cache.put("/t/a", b"12345")  # not preferred: rejected
    cache.prefer("/t/")
    assert cache.put("/t/a", b"12345")
    assert cache.get("/t/a") == b"12345"


def test_admit_all_mode():
    cache = SsdCache(100, admit_preferred_only=False)
    assert cache.put("/x", b"abc")
    assert cache.get("/x") == b"abc"


def test_lru_eviction_order():
    cache = SsdCache(10, admit_preferred_only=False)
    cache.put("/a", b"1234")
    cache.put("/b", b"1234")
    cache.get("/a")          # touch /a: /b becomes LRU
    cache.put("/c", b"1234")  # evicts /b
    assert cache.get("/a") is not None
    assert cache.get("/b") is None
    assert cache.get("/c") is not None


def test_preferred_entries_survive_eviction_pressure():
    cache = SsdCache(10, admit_preferred_only=False)
    cache.prefer("/hot")
    cache.put("/hot/a", b"1234")
    cache.put("/cold/b", b"1234")
    cache.put("/cold/c", b"1234")  # must evict; sacrifices /cold/b
    assert cache.get("/hot/a") is not None
    assert cache.get("/cold/b") is None


def test_all_preferred_falls_back_to_lru():
    cache = SsdCache(8, admit_preferred_only=False)
    cache.prefer("/")
    cache.put("/a", b"1234")
    cache.put("/b", b"1234")
    cache.put("/c", b"1234")
    assert cache.entry_count == 2
    assert cache.get("/a") is None  # oldest preferred evicted


def test_oversized_object_rejected():
    cache = SsdCache(4, admit_preferred_only=False)
    assert not cache.put("/big", b"12345")


def test_overwrite_updates_bytes():
    cache = SsdCache(100, admit_preferred_only=False)
    cache.put("/a", b"1234")
    cache.put("/a", b"12")
    assert cache.used_bytes == 2


def test_invalidate():
    cache = SsdCache(100, admit_preferred_only=False)
    cache.put("/a", b"1234")
    cache.invalidate("/a")
    assert cache.get("/a") is None
    assert cache.used_bytes == 0


def test_miss_ratio_accounting():
    cache = SsdCache(100, admit_preferred_only=False)
    cache.get("/a")            # miss
    cache.put("/a", b"1")
    cache.get("/a")            # hit
    cache.get("/b")            # miss
    assert cache.hits == 1 and cache.misses == 2
    assert cache.miss_ratio() == pytest.approx(2 / 3)
    stats = cache.stats()
    assert stats["entries"] == 1


def test_unprefer():
    cache = SsdCache(100)
    cache.prefer("/t/")
    cache.unprefer("/t/")
    assert not cache.put("/t/a", b"1")


# -- regressions: rejected updates must not leave stale bytes ------------


def test_rejected_oversized_update_invalidates_stale_entry():
    cache = SsdCache(4, admit_preferred_only=False)
    assert cache.put("/a", b"old")
    # The path is rewritten with a payload the cache cannot hold; the
    # old bytes must not keep being served.
    assert not cache.put("/a", b"12345")
    assert cache.get("/a") is None


def test_rejected_admission_update_invalidates_stale_entry():
    cache = SsdCache(100)
    cache.prefer("/t/")
    assert cache.put("/t/a", b"old")
    cache.unprefer("/t/")
    # Rewrite rejected by the preferred-only policy: stale copy must go.
    assert not cache.put("/t/a", b"new")
    assert cache.get("/t/a") is None


def test_rejected_preferred_pressure_update_drops_stale_entry():
    cache = SsdCache(8, admit_preferred_only=False)
    cache.prefer("/hot")
    cache.put("/hot/a", b"1234")
    cache.put("/x", b"12")
    # Growing /x to 6 bytes needs /hot/a evicted, which a non-preferred
    # insert may not do — but the stale 2-byte /x must still go.
    assert not cache.put("/x", b"123456")
    assert cache.get("/x") is None
    assert cache.get("/hot/a") is not None


def test_invalidate_stale_reclassifies_hit():
    cache = SsdCache(100, admit_preferred_only=False)
    cache.put("/a", b"old")
    assert cache.get("/a") == b"old"   # counted as a hit...
    cache.invalidate_stale("/a")       # ...but the bytes were stale
    assert cache.hits == 0 and cache.misses == 1
    assert cache.stale_invalidations == 1
    assert cache.get("/a") is None


# -- regressions: preference inversion -----------------------------------


def test_non_preferred_insert_never_evicts_preferred():
    cache = SsdCache(8, admit_preferred_only=False)
    cache.prefer("/hot")
    cache.put("/hot/a", b"1234")
    cache.put("/hot/b", b"1234")
    # Cache is full of preferred data; a non-preferred insert must be
    # rejected, not displace business-critical entries.
    assert not cache.put("/cold/x", b"1234")
    assert cache.get("/hot/a") is not None
    assert cache.get("/hot/b") is not None
    assert cache.rejected_for_preferred == 1


def test_preferred_insert_may_still_evict_preferred_lru():
    cache = SsdCache(8, admit_preferred_only=False)
    cache.prefer("/hot")
    cache.put("/hot/a", b"1234")
    cache.put("/hot/b", b"1234")
    assert cache.put("/hot/c", b"1234")  # preferred-for-preferred: LRU
    assert cache.get("/hot/a") is None
    assert cache.get("/hot/c") is not None


def test_preference_cache_invalidated_on_policy_change():
    cache = SsdCache(100, admit_preferred_only=False)
    assert not cache.is_preferred("/t/a")
    cache.prefer("/t/")
    assert cache.is_preferred("/t/a")
    cache.unprefer("/t/")
    assert not cache.is_preferred("/t/a")
