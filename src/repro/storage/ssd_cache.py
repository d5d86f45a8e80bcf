"""Per-node SSD data cache (§IV-B).

Feisu layers an LRU-managed SSD cache under its storage access path.  The
paper is candid that without manual interference the ad-hoc workload
thrashes it ("more than 80% ... cache miss rates"), so "cache
preferences" are set manually for business-critical datasets.  This
implementation reproduces both behaviours:

* plain LRU over cached objects keyed by full path;
* a preference set — only preferred paths are admitted when
  ``admit_preferred_only`` is on (the production configuration), while
  benchmarks can switch to admit-all to reproduce the 80 %-miss
  observation.

Preference entries are path *prefixes*; they come either from operators
(the paper's manual interference) or from the automatic tiering daemon
(:mod:`repro.storage.tiering`), which derives them from observed heat.

Two policy guarantees (regression-pinned in ``tests/test_ssd_cache.py``):

* a **rejected update never leaves stale bytes** — if a path is being
  rewritten and the new payload cannot be admitted, the old entry is
  invalidated rather than kept serving the previous contents;
* **preferred entries are never sacrificed for non-preferred
  admissions** — when only preferred entries remain, a non-preferred
  insert is rejected instead of evicting business-critical data.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Dict, Optional, Set

from repro.errors import StorageError

#: Bound on the memoized per-path preference lookups; the map is cleared
#: wholesale when it outgrows this (preference changes also clear it).
_PREF_CACHE_LIMIT = 65536


def _locked(method):
    """Serialize a public entry point on the instance's ``_lock``.

    The cache is safe under concurrent callers: an RLock (``put``
    recurses into ``invalidate``/``_evict_one``) keeps ``_bytes`` and
    the LRU order consistent under concurrent get/put.  Simulated
    outcomes never depend on thread timing — the simulator itself runs
    every leaf on one thread.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


class SsdCache:
    """An LRU byte cache with preference admission control."""

    def __init__(
        self,
        capacity_bytes: int,
        admit_preferred_only: bool = True,
    ):
        if capacity_bytes <= 0:
            raise StorageError("SSD cache capacity must be positive")
        self._lock = threading.RLock()
        self.capacity_bytes = capacity_bytes
        self.admit_preferred_only = admit_preferred_only
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._bytes = 0
        self._preferred: Set[str] = set()
        #: Memoized path -> preferred flag; eviction consults preference
        #: once per candidate, so rescanning the whole prefix set there
        #: made every eviction O(entries × prefixes).
        self._pref_cache: Dict[str, bool] = {}
        self.hits = 0
        self.misses = 0
        self.stale_invalidations = 0
        self.rejected_for_preferred = 0

    # -- preferences (manual §IV-B interference, or tiering-derived) -----

    @_locked
    def prefer(self, path_prefix: str) -> None:
        """Mark a path prefix as business-critical: admitted and favoured."""
        if path_prefix not in self._preferred:
            self._preferred.add(path_prefix)
            self._pref_cache.clear()

    @_locked
    def unprefer(self, path_prefix: str) -> None:
        if path_prefix in self._preferred:
            self._preferred.discard(path_prefix)
            self._pref_cache.clear()

    @_locked
    def preferred_prefixes(self) -> Set[str]:
        return set(self._preferred)

    @_locked
    def is_preferred(self, path: str) -> bool:
        flag = self._pref_cache.get(path)
        if flag is None:
            flag = any(path.startswith(p) for p in self._preferred)
            if len(self._pref_cache) >= _PREF_CACHE_LIMIT:
                self._pref_cache.clear()
            self._pref_cache[path] = flag
        return flag

    # -- cache operations -------------------------------------------------

    @_locked
    def get(self, path: str) -> Optional[bytes]:
        data = self._entries.get(path)
        if data is None:
            self.misses += 1
            return None
        self._entries.move_to_end(path)
        self.hits += 1
        return data

    @_locked
    def put(self, path: str, data: bytes) -> bool:
        """Insert unless admission policy rejects; returns admitted?

        Any rejected *update* (admission, oversize, or preferred-only
        eviction pressure) invalidates the existing entry: a path that
        was just rewritten must never keep serving its old bytes.
        """
        preferred = self.is_preferred(path)
        if self.admit_preferred_only and not preferred:
            self.invalidate(path)
            return False
        if len(data) > self.capacity_bytes:
            self.invalidate(path)
            return False
        if path in self._entries:
            self._bytes -= len(self._entries.pop(path))
        while self._bytes + len(data) > self.capacity_bytes and self._entries:
            if not self._evict_one(allow_preferred=preferred):
                # Only preferred entries remain and this insert is not
                # preferred: reject it rather than sacrifice them.  The
                # stale previous version (if any) was popped above.
                self.rejected_for_preferred += 1
                return False
        self._entries[path] = data
        self._bytes += len(data)
        return True

    def _evict_one(self, allow_preferred: bool = True) -> bool:
        """Evict the LRU non-preferred entry; fall back to the LRU
        preferred entry only when the admission itself is preferred.
        Returns whether anything was evicted."""
        victim = None
        for path in self._entries:  # OrderedDict iterates LRU -> MRU
            if not self.is_preferred(path):
                victim = path
                break
        if victim is None:
            if not allow_preferred:
                return False
            victim = next(iter(self._entries))
        self._bytes -= len(self._entries.pop(victim))
        return True

    @_locked
    def invalidate(self, path: str) -> None:
        if path in self._entries:
            self._bytes -= len(self._entries.pop(path))

    @_locked
    def invalidate_stale(self, path: str) -> None:
        """Drop an entry the caller found to disagree with the backing
        store, and correct the hit it was just (wrongly) served as."""
        if path in self._entries:
            self._bytes -= len(self._entries.pop(path))
        self.hits = max(0, self.hits - 1)
        self.misses += 1
        self.stale_invalidations += 1

    @property
    def used_bytes(self) -> int:
        return self._bytes

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    @_locked
    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "miss_ratio": self.miss_ratio(),
            "used_bytes": self._bytes,
            "entries": len(self._entries),
            "stale_invalidations": self.stale_invalidations,
            "rejected_for_preferred": self.rejected_for_preferred,
        }
