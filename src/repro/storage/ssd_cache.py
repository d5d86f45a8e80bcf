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

Preference entries are path *prefixes*, set by operators: the paper's
manual interference, and the only source of preferences.

Two policy guarantees (regression-pinned in ``tests/test_ssd_cache.py``):

* a **line is valid by identity** — :meth:`SsdCache.get` hits only if the
  line holds the very payload object just read from storage, and a
  rejected update (a rewritten path) still drops the old line;
* **preferred entries are never sacrificed for non-preferred
  admissions** — when only preferred entries remain, a non-preferred
  insert is rejected instead of evicting business-critical data.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Dict, Set

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
        self.rejected_for_preferred = 0

    # -- preferences (manual §IV-B interference) ------------------------

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
    def get(self, path: str, payload: bytes) -> bool:
        """Is ``payload`` — the object just read from ``path`` — cached?
        A line holding another object is stale: it is dropped."""
        if self._entries.get(path) is payload:
            self._entries.move_to_end(path)
            self.hits += 1
            return True
        self.invalidate(path)
        self.misses += 1
        return False

    @_locked
    def put(self, path: str, data: bytes) -> bool:
        """Insert unless admission policy rejects; returns admitted?

        The path's old line goes either way: a rejected *update*
        (admission, oversize, or preferred-only eviction pressure) must
        not leave the previous bytes behind.
        """
        self.invalidate(path)
        preferred = self.is_preferred(path)
        if (self.admit_preferred_only and not preferred) or len(data) > self.capacity_bytes:
            return False
        while self._bytes + len(data) > self.capacity_bytes and self._entries:
            if not self._evict_one(allow_preferred=preferred):
                # Only preferred entries remain and this insert is not
                # preferred: reject it rather than sacrifice them.
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
            "rejected_for_preferred": self.rejected_for_preferred,
        }
