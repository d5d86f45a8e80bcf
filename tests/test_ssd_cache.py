"""SSD data-cache semantics (§IV-B): LRU + manual preferences.

``get`` is handed the payload the storage layer just returned; a line is
a hit only if it holds that very object.
"""

import numpy as np
import pytest

from repro import FeisuCluster, FeisuConfig, LeafConfig
from repro.errors import StorageError
from repro.storage.loader import store_table
from repro.storage.ssd_cache import SsdCache
from tests.conftest import CLICKS_SCHEMA, make_clicks_columns

A, B, C = (bytes(bytearray(b"1234")) for _ in range(3))  # equal bytes, distinct objects


def test_invalid_capacity():
    with pytest.raises(StorageError):
        SsdCache(0)


def test_preferred_only_admission_default():
    cache = SsdCache(100)
    assert not cache.put("/t/a", A)  # not preferred: rejected
    cache.prefer("/t/")
    assert cache.put("/t/a", A)
    assert cache.get("/t/a", A)


def test_admit_all_mode():
    cache = SsdCache(100, admit_preferred_only=False)
    assert cache.put("/x", A)
    assert cache.get("/x", A)


def test_lru_eviction_order():
    cache = SsdCache(10, admit_preferred_only=False)
    cache.put("/a", A)
    cache.put("/b", B)
    cache.get("/a", A)  # touch /a: /b becomes LRU
    cache.put("/c", C)  # evicts /b
    assert cache.get("/a", A)
    assert not cache.get("/b", B)
    assert cache.get("/c", C)


def test_preferred_entries_survive_eviction_pressure():
    cache = SsdCache(10, admit_preferred_only=False)
    cache.prefer("/hot")
    cache.put("/hot/a", A)
    cache.put("/cold/b", B)
    cache.put("/cold/c", C)  # must evict; sacrifices /cold/b
    assert cache.get("/hot/a", A)
    assert not cache.get("/cold/b", B)


def test_all_preferred_falls_back_to_lru():
    cache = SsdCache(8, admit_preferred_only=False)
    cache.prefer("/")
    cache.put("/a", A)
    cache.put("/b", B)
    cache.put("/c", C)
    assert cache.entry_count == 2
    assert not cache.get("/a", A)  # oldest preferred evicted


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
    cache.put("/a", A)
    cache.invalidate("/a")
    assert not cache.get("/a", A)
    assert cache.used_bytes == 0


def test_miss_ratio_accounting():
    cache = SsdCache(100, admit_preferred_only=False)
    cache.get("/a", A)  # miss
    cache.put("/a", A)
    cache.get("/a", A)  # hit
    cache.get("/b", B)  # miss
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
    old = b"old"
    assert cache.put("/a", old)
    # The path is rewritten with a payload the cache cannot hold; the
    # old bytes must not keep being served.
    assert not cache.put("/a", b"12345")
    assert not cache.get("/a", old)
    assert cache.entry_count == 0


def test_rejected_admission_update_invalidates_stale_entry():
    cache = SsdCache(100)
    cache.prefer("/t/")
    old = b"old"
    assert cache.put("/t/a", old)
    cache.unprefer("/t/")
    # Rewrite rejected by the preferred-only policy: stale copy must go.
    assert not cache.put("/t/a", b"new")
    assert not cache.get("/t/a", old)
    assert cache.entry_count == 0


def test_rejected_preferred_pressure_update_drops_stale_entry():
    cache = SsdCache(8, admit_preferred_only=False)
    cache.prefer("/hot")
    cache.put("/hot/a", A)
    old = b"12"
    cache.put("/x", old)
    # Growing /x to 6 bytes needs /hot/a evicted, which a non-preferred
    # insert may not do — but the stale 2-byte /x must still go.
    assert not cache.put("/x", b"123456")
    assert not cache.get("/x", old)
    assert cache.get("/hot/a", A)


def test_line_holding_another_object_is_a_miss_and_is_dropped():
    """The path was rewritten since it was cached: the storage layer now
    returns another object — even one with equal bytes — so the line is
    stale.  It is dropped and counted as a miss, never served."""
    cache = SsdCache(100, admit_preferred_only=False)
    cache.put("/a", A)
    assert not cache.get("/a", B)
    assert cache.hits == 0 and cache.misses == 1
    assert cache.entry_count == 0 and cache.used_bytes == 0
    assert not cache.get("/a", A)  # the line is gone, not merely skipped


# -- regressions: preference inversion -----------------------------------


def test_non_preferred_insert_never_evicts_preferred():
    cache = SsdCache(8, admit_preferred_only=False)
    cache.prefer("/hot")
    cache.put("/hot/a", A)
    cache.put("/hot/b", B)
    # Cache is full of preferred data; a non-preferred insert must be
    # rejected, not displace business-critical entries.
    assert not cache.put("/cold/x", C)
    assert cache.get("/hot/a", A)
    assert cache.get("/hot/b", B)
    assert cache.rejected_for_preferred == 1


def test_preferred_insert_may_still_evict_preferred_lru():
    cache = SsdCache(8, admit_preferred_only=False)
    cache.prefer("/hot")
    cache.put("/hot/a", A)
    cache.put("/hot/b", B)
    assert cache.put("/hot/c", C)  # preferred-for-preferred: LRU
    assert not cache.get("/hot/a", A)
    assert cache.get("/hot/c", C)


def test_preference_cache_invalidated_on_policy_change():
    cache = SsdCache(100, admit_preferred_only=False)
    assert not cache.is_preferred("/t/a")
    cache.prefer("/t/")
    assert cache.is_preferred("/t/a")
    cache.unprefer("/t/")
    assert not cache.is_preferred("/t/a")


def test_leaf_overwrite_then_read_serves_fresh_bytes():
    """PR 5 staleness regression, end to end: rewriting a table's blocks
    must invalidate the SSD-cached payloads, not serve stale rows.  (A
    line is valid only for the payload object it holds, see
    ``tests/test_ssd_cache.py``.)"""
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=4,
            leaf=LeafConfig(
                enable_smartindex=False,
                enable_ssd_cache=True,
                ssd_admit_preferred_only=False,
            ),
        )
    )
    n = 2000
    v1 = {
        **make_clicks_columns(n, seed=3),
        "c1": np.zeros(n, dtype=np.int64),
    }
    cluster.load_table("T", CLICKS_SCHEMA, v1, storage="storage-a", block_rows=1000)
    assert cluster.query("SELECT COUNT(*) FROM T WHERE c1 < 50").rows()[0][0] == n
    # Cached: a second run hits the SSD cache.
    assert cluster.query("SELECT COUNT(*) FROM T WHERE c1 < 50").rows()[0][0] == n
    assert sum(leaf.ssd_cache.hits for leaf in cluster.leaves) > 0
    # The ingestion process rewrites every block in place (same paths,
    # same block ids — only the contents change).
    v2 = {**v1, "c1": np.full(n, 99, dtype=np.int64)}
    store_table(
        "T", CLICKS_SCHEMA, v2, cluster.router,
        cluster.storage_by_name("storage-a"), block_rows=1000,
    )
    result = cluster.query("SELECT COUNT(*) FROM T WHERE c1 < 50")
    assert result.rows()[0][0] == 0  # stale cache would answer 2000
