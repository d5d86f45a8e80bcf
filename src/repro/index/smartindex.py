"""SmartIndex entries and the per-leaf index cache manager (§IV-C).

An entry mirrors the Fig 6 record: block id; the canonical
``op/colname/colvalue`` predicate identity; the 0-1 result vector
(optionally RLE-compressed); and misc metadata (creation time, preference flag; last
use is the place in LRU order).  The block id is an opaque key: a leaf passes ``(block
id, incarnation)``, so vectors of rewritten bytes are simply never probed.

The :class:`SmartIndexManager` implements §IV-C-2's management policy:

* entries are created every time a predicate is evaluated on a leaf;
* deletion on (1) memory pressure — LRU — or (2) age beyond the TTL
  (72 h by default, "based on our experiences");
* user-set *preferences* keep entries alive past their TTL while memory
  lasts, and make them the last LRU victims.

Lookup implements the Fig 7 rewrite: a probe for predicate *p* first
tries *p*'s own vector, then the stored vector of *p*'s complement
negated on the fly (one in-memory bit-NOT).  NaN fails every ordered
comparison and EQ, so over a column that holds NaN the bit-NOT of
``x > 0`` selects NaN rows that ``x <= 0`` does not: a probe with
``bounds`` does not take it (EQ and NE stay each other's complements).
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.index.bitmap import BitVector, rle_compress, rle_decompress
from repro.planner.cnf import AtomicPredicate, Clause
from repro.planner.cost import OPS_PER_INDEX_ROW

#: Default index Time-To-Live: 72 hours (§IV-C-2).
DEFAULT_TTL_S = 72 * 3600.0
#: Default per-leaf index memory: 512 MB at production scale (§VI-A).
DEFAULT_MEMORY_BYTES = 512 * 1024 * 1024
#: Compress entries whose RLE payload is at most this fraction of raw.
COMPRESS_THRESHOLD = 0.75
#: Re-check preferred-but-expired entries at most this often (seconds).
SWEEP_INTERVAL_S = 60.0


@dataclass
class SmartIndexEntry:
    """One (block, predicate) result vector plus Fig 6 metadata."""

    block_id: Hashable
    predicate_key: str
    length: int
    created_at: float
    preferred: bool = False
    compressed: Optional[bytes] = None
    raw: Optional[BitVector] = None
    #: The vector leaves out NaN rows of the column, so its bit-NOT
    #: holds them: an atom with bounds over a column that holds NaN.
    nan_excluded: bool = False

    @classmethod
    def build(
        cls,
        block_id: Hashable,
        predicate_key: str,
        vector: BitVector,
        now: float,
        compress: bool = True,
    ) -> "SmartIndexEntry":
        entry = cls(
            block_id=block_id,
            predicate_key=predicate_key,
            length=vector.length,
            created_at=now,
        )
        if compress:
            payload, _ = rle_compress(vector)
            if len(payload) <= vector.nbytes * COMPRESS_THRESHOLD:
                entry.compressed = payload
                return entry
        entry.raw = vector
        return entry

    def vector(self) -> BitVector:
        if self.raw is not None:
            return self.raw
        return rle_decompress(self.compressed, self.length)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.block_id, self.predicate_key)

    @property
    def nbytes(self) -> int:
        # ``build`` gives an entry exactly one payload.
        payload = self.raw.nbytes if self.raw is not None else len(self.compressed)
        return payload + 96  # struct overhead: ids, timestamps, misc


@dataclass
class IndexStats:
    """Counters for the Fig 9/10/11 measurements."""

    hits: int = 0
    complement_hits: int = 0
    misses: int = 0
    creations: int = 0
    evictions_lru: int = 0
    evictions_ttl: int = 0
    #: TTL sweep passes executed (at most one per lookup/cover call).
    ttl_sweeps: int = 0
    #: Always zero: ``benchmarks/e2e/harness.py`` still reads both.
    subsumption_hits: int = 0
    evictions_cost: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.complement_hits + self.misses

    def miss_ratio(self) -> float:
        return self.misses / self.lookups if self.lookups else 0.0


def _locked(method):
    """Serialize a public entry point on the instance's ``_lock``.

    A manager is safe under concurrent callers probing and inserting
    from real OS threads: an RLock (public methods call other public
    methods) keeps the cache's books — ``_bytes``, the TTL records,
    the secondary index — consistent without per-structure locking.
    Simulated outcomes never depend on thread timing.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


class SmartIndexManager:
    """Per-leaf in-memory cache of SmartIndex entries."""

    def __init__(
        self,
        memory_budget_bytes: int = DEFAULT_MEMORY_BYTES,
        ttl_s: float = DEFAULT_TTL_S,
        compress: bool = True,
    ):
        if memory_budget_bytes <= 0:
            raise IndexError_("index memory budget must be positive")
        self._lock = threading.RLock()
        self.memory_budget_bytes = memory_budget_bytes
        self.ttl_s = ttl_s
        self.compress = compress
        self.sweep_interval_s = SWEEP_INTERVAL_S
        self._entries: "OrderedDict[Tuple[str, str], SmartIndexEntry]" = OrderedDict()
        self._bytes = 0
        self._preferred_predicates: set = set()
        # TTL bookkeeping is O(1) amortized per lookup: entries join a
        # creation-time-ordered deque at insert (simulation time is
        # monotonic), and a sweep only pops the expired prefix.  Records
        # go stale when their entry is evicted or re-created; they are
        # skipped on pop, and dropped once they outnumber the live
        # entries (``_drop_stale_created``).  Preferred entries that
        # outlive their TTL move to ``_pinned_expired`` and are re-checked
        # at most once per ``sweep_interval_s`` (they die at the first
        # sweep after being unpreferred).
        self._created: Deque[Tuple[float, Tuple[str, str]]] = deque()
        self._pinned_expired: Dict[Tuple[str, str], float] = {}
        self._last_pinned_sweep = float("-inf")
        # Secondary index: predicate key -> set of entry keys, so
        # prefer/unprefer do not scan the whole cache.
        self._by_predicate: Dict[str, Dict[Tuple[str, str], None]] = {}
        self.stats = IndexStats()

    # -- preferences (§IV-C-2 user interfaces) ---------------------------

    @_locked
    def prefer_predicate(self, predicate_key: str) -> None:
        """Pin all (current and future) entries for this predicate."""
        self._preferred_predicates.add(predicate_key)
        for key in self._by_predicate.get(predicate_key, ()):
            self._entries[key].preferred = True

    @_locked
    def unprefer_predicate(self, predicate_key: str) -> None:
        self._preferred_predicates.discard(predicate_key)
        for key in self._by_predicate.get(predicate_key, ()):
            self._entries[key].preferred = False

    # -- core cache operations -------------------------------------------

    @_locked
    def lookup_atom(
        self, block_id: Hashable, atom: AtomicPredicate, now: float, sweep: bool = True
    ) -> Optional[BitVector]:
        """Fetch the result vector for one atom, directly or via the
        complement's bit-NOT (Fig 7)."""
        if sweep:
            self._expire(now)
        return self._lookup_atom(block_id, atom)

    @_locked
    def lookup_clause(
        self, block_id: Hashable, clause: Clause, now: float, sweep: bool = True
    ) -> Optional[BitVector]:
        """OR of all atom vectors; None unless *every* atom is present.

        The TTL sweep runs once up front, not per atom.
        """
        if not clause.is_indexable:
            return None
        if sweep:
            self._expire(now)
        return self._lookup_clause(block_id, clause)

    @_locked
    def cover(
        self, block_id: Hashable, clauses: Sequence[Clause], now: float
    ) -> Tuple[Optional[BitVector], List[Clause]]:
        """Try to answer a scan filter's clauses from the cache.

        Returns ``(mask, missing)``: ``mask`` ANDs the clauses answered,
        and ``missing`` must be evaluated against data.  Full cover ⇔
        ``missing`` is empty — then the block scan and predicate
        evaluation are both skipped.

        The TTL sweep runs exactly once per cover call (not once per
        atom), so a multi-clause CNF probe does not multiply sweep cost;
        see ``stats.ttl_sweeps``.  The lock, too, is taken once.  The
        probes are :meth:`_lookup_clause`'s, spelled out: an exact hit,
        the common case, is read here, and only a miss of the exact key
        goes through :meth:`_lookup_complement`.
        """
        self._expire(now)
        entries, stats = self._entries, self.stats
        mask: Optional[BitVector] = None
        missing: List[Clause] = []
        for clause in clauses:
            vec: Optional[BitVector] = None
            if clause.is_indexable:
                for atom in clause.atoms:
                    key = (block_id, atom.key)
                    entry = entries.get(key)
                    if entry is None:
                        atom_vec = self._lookup_complement(block_id, atom)
                        if atom_vec is None:
                            vec = None
                            break
                    else:  # ``_touch``, then ``entry.vector()``
                        entries.move_to_end(key)
                        stats.hits += 1
                        atom_vec = entry.raw if entry.raw is not None else entry.vector()
                    vec = atom_vec if vec is None else (vec | atom_vec)
            if vec is None:
                missing.append(clause)
            else:
                mask = vec if mask is None else (mask & vec)
        return mask, missing

    # -- the scan's access path (§IV-C, Fig 7) ------------------------------

    def probe(self, key: Hashable, clauses: Sequence[Clause], block, now: float):
        """:meth:`cover` as a scan's access path.  The charge counts the
        clauses and costs one bitvector pass per answered clause.

        The cache is read only inside :meth:`cover`, which takes the
        lock, so a probe takes it once; what ``cover`` hands back (fresh
        or immutable vectors) needs no lock to read."""
        mask, missing = self.cover(key, clauses, now)
        misses = len(missing)
        covered = len(clauses) - misses

        def charge(report, read) -> bool:
            report.index_clause_hits += covered
            report.index_clause_misses += misses
            report.cpu_ops += OPS_PER_INDEX_ROW * block.num_rows * covered
            return False

        return (None if mask is None else mask.to_bool_array()), missing, charge

    @_locked
    def learn(
        self, block_id: Hashable, atom: AtomicPredicate, mask: np.ndarray, now: float, ref
    ) -> None:
        """:meth:`insert` an atom a scan evaluated over the whole block.

        ``ref`` is the block's catalog entry: its range says whether the
        column holds NaN (``np.min`` propagates it).
        """
        low = (ref.range_of(atom.column) or (None,))[0]
        self._insert_vector(block_id, atom, BitVector.from_bool_array(mask), now, low != low)

    def _lookup_atom(self, block_id: Hashable, atom: AtomicPredicate) -> Optional[BitVector]:
        """:meth:`lookup_atom`, lock held and sweep done: exact, then
        complement."""
        entry = self._touch((block_id, atom.key))
        if entry is not None:
            self.stats.hits += 1
            return entry.vector()
        return self._lookup_complement(block_id, atom)

    def _lookup_complement(self, block_id: Hashable, atom: AtomicPredicate) -> Optional[BitVector]:
        """:meth:`_lookup_atom` once the exact key missed: the
        complement's bit-NOT, else a miss."""
        entry = self._touch((block_id, atom.complement().key))
        if entry is not None and not (entry.nan_excluded and atom.bounds is not None):
            self.stats.complement_hits += 1
            return ~entry.vector()
        self.stats.misses += 1
        return None

    def _lookup_clause(self, block_id: Hashable, clause: Clause) -> Optional[BitVector]:
        """:meth:`lookup_clause` of an indexable clause, lock held and sweep done."""
        result: Optional[BitVector] = None
        for atom in clause.atoms:
            vec = self._lookup_atom(block_id, atom)
            if vec is None:
                return None
            result = vec if result is None else (result | vec)
        return result

    @_locked
    def insert(
        self,
        block_id: Hashable,
        atom: AtomicPredicate,
        mask: np.ndarray,
        now: float,
        nan_rows: bool = False,
    ) -> None:
        """Record a freshly evaluated predicate result (§IV-C-2:
        "Feisu creates a SmartIndex each time a query predicate is
        evaluated in a leaf server").  ``nan_rows`` says the block's
        column holds NaN.
        """
        self._insert_vector(block_id, atom, BitVector.from_bool_array(mask), now, nan_rows)

    def _insert_vector(
        self,
        block_id: Hashable,
        atom: AtomicPredicate,
        vector: BitVector,
        now: float,
        nan_rows: bool = False,
    ) -> None:
        predicate_key = atom.key  # a formatted string: build it once
        entry = SmartIndexEntry.build(block_id, predicate_key, vector, now, compress=self.compress)
        entry.preferred = predicate_key in self._preferred_predicates
        entry.nan_excluded = nan_rows and atom.bounds is not None
        key = (block_id, predicate_key)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key] = entry
        self._bytes += entry.nbytes
        self._created.append((now, key))
        self._pinned_expired.pop(key, None)  # re-created: TTL restarts
        self._by_predicate.setdefault(predicate_key, {})[key] = None
        self.stats.creations += 1
        self._enforce_budget()
        if len(self._created) > 2 * len(self._entries) + 8:
            self._drop_stale_created()

    def _drop_stale_created(self) -> None:
        """Keep only the TTL records ``_expire`` would act on.

        Called once stale records outnumber live entries, so the deque is
        bounded by the cache's size, not by inserts since the TTL, at
        O(1) amortized cost per insert.  Order is kept, and equal records
        (an entry re-created at the same instant) collapse into one.
        """
        entries = self._entries
        self._created = deque(
            dict.fromkeys(
                record
                for record in self._created
                if (entry := entries.get(record[1])) is not None
                and entry.created_at == record[0]
            )
        )

    # -- policy ------------------------------------------------------------

    def _touch(self, key: Tuple[str, str]) -> Optional[SmartIndexEntry]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry

    def _expire(self, now: float) -> None:
        """TTL sweep; preferred entries outlive their TTL while memory
        is not scarce (§IV-C-2).

        Pops only the expired prefix of the creation-ordered deque —
        O(1) amortized per lookup instead of a full cache scan.
        """
        self.stats.ttl_sweeps += 1
        horizon = now - self.ttl_s
        created = self._created
        while created and created[0][0] < horizon:
            created_at, key = created.popleft()
            entry = self._entries.get(key)
            if entry is None or entry.created_at != created_at:
                continue  # stale record: entry was evicted or re-created
            if entry.preferred:
                self._pinned_expired[key] = created_at
                continue
            self._remove(key)
            self.stats.evictions_ttl += 1
        if self._pinned_expired and now - self._last_pinned_sweep >= self.sweep_interval_s:
            self._last_pinned_sweep = now
            for key, created_at in list(self._pinned_expired.items()):
                entry = self._entries.get(key)
                if entry is None or entry.created_at != created_at:
                    del self._pinned_expired[key]
                elif not entry.preferred:
                    self._remove(key)
                    self.stats.evictions_ttl += 1

    def _enforce_budget(self) -> None:
        while self._bytes > self.memory_budget_bytes and self._entries:
            victim = None
            for key, e in self._entries.items():  # LRU -> MRU
                if not e.preferred:
                    victim = key
                    break
            if victim is None:
                victim = next(iter(self._entries))  # all preferred: evict LRU
            self._remove(victim)
            self.stats.evictions_lru += 1

    def _remove(self, key: Tuple[str, str]) -> None:
        entry = self._entries.pop(key)
        self._bytes -= entry.nbytes
        self._pinned_expired.pop(key, None)
        pred_keys = self._by_predicate.get(entry.predicate_key)
        if pred_keys is not None:
            pred_keys.pop(key, None)
            if not pred_keys:
                del self._by_predicate[entry.predicate_key]

    # -- introspection -----------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._bytes

    @property
    def entry_count(self) -> int:
        return len(self._entries)

    @_locked
    def entries_for_block(self, block_id: Hashable) -> List[SmartIndexEntry]:
        return [e for e in self._entries.values() if e.block_id == block_id]
