"""SmartIndex entries and the per-leaf index cache manager (§IV-C).

An entry mirrors the Fig 6 record: block id; the canonical
``op/colname/colvalue`` predicate identity; the 0-1 result vector
(optionally RLE-compressed); and misc metadata (creation time, last use,
preference flag).  The block id is an opaque key: a leaf passes ``(block
id, incarnation)``, so vectors of rewritten bytes are simply never probed.

The :class:`SmartIndexManager` implements §IV-C-2's management policy:

* entries are created every time a predicate is evaluated on a leaf;
* deletion on (1) memory pressure — LRU — or (2) age beyond the TTL
  (72 h by default, "based on our experiences");
* user-set *preferences* keep entries alive past their TTL while memory
  lasts, and make them the last LRU victims.

Lookup implements the Fig 7 rewrite: a probe for predicate *p* first
tries *p*'s own vector, then the stored vector of *p*'s complement
negated on the fly (one in-memory bit-NOT).

With ``semantic=True`` (default off — the committed paper figures use
the exact/complement-only manager above) three further layers engage:

* **derived hits** — an :class:`~repro.index.intervals.IntervalRegistry`
  finds cached atoms at the probe's exact value and composes the answer
  by bitmap algebra (``EQ = LE & GE``, ``LE = LT | EQ``,
  ``LT = LE &~ EQ``, …).  Compositions use only positively stored
  vectors, so they are bit-identical to evaluation even on NaN rows.
* **residual candidates** — when a cached atom strictly subsumes the
  probe (``x < 10`` ⊆ cached ``x < 20``), the clause is answered with a
  *candidate mask*: the executor re-evaluates the clause on candidate
  rows only and the leaf charges I/O for only that fraction.
* **cost-aware caching** — LRU is replaced by benefit-per-byte scoring
  (``saved_s × observed reuse ÷ nbytes``) with a scan-resistant
  probation segment; a fresh insert that is itself the cheapest victim
  self-evicts, which doubles as admission control.
"""

from __future__ import annotations

import functools
import heapq
import threading
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.index.bitmap import BitVector, rle_compress, rle_decompress
from repro.index.intervals import IntervalRegistry
from repro.planner.cnf import AtomicPredicate, Clause, ConjunctiveForm
from repro.sql.ast import BinaryOperator

#: Default index Time-To-Live: 72 hours (§IV-C-2).
DEFAULT_TTL_S = 72 * 3600.0
#: Default per-leaf index memory: 512 MB at production scale (§VI-A).
DEFAULT_MEMORY_BYTES = 512 * 1024 * 1024
#: Compress entries whose RLE payload is at most this fraction of raw.
COMPRESS_THRESHOLD = 0.75
#: Re-check preferred-but-expired entries at most this often (seconds).
DEFAULT_SWEEP_INTERVAL_S = 60.0
#: Residual candidate masks covering more than this row fraction are
#: treated as misses — re-scanning ~everything saves nothing.
DEFAULT_RESIDUAL_MAX_FRACTION = 0.95
#: Fallback saved-scan-seconds per row for cost-aware scoring when the
#: caller supplies none: one comparison op per row at a few Gops/s.
DEFAULT_SAVED_S_PER_ROW = 2.5e-10
#: Halve all frequency counters once their sum reaches this (aging).
_FREQ_AGING_LIMIT = 8192
#: Operators with a NaN-exact bitmap-algebra derivation (NE is excluded:
#: it is answered by the EQ complement, see ``_derive_atom``).
_DERIVABLE_OPS = frozenset(
    {
        BinaryOperator.EQ,
        BinaryOperator.LT,
        BinaryOperator.LE,
        BinaryOperator.GT,
        BinaryOperator.GE,
    }
)


@dataclass
class SmartIndexEntry:
    """One (block, predicate) result vector plus Fig 6 metadata."""

    block_id: Hashable
    predicate_key: str
    length: int
    created_at: float
    last_used: float
    preferred: bool = False
    compressed: Optional[bytes] = None
    raw: Optional[BitVector] = None
    hit_count: int = 0
    #: Semantic-mode metadata (unused and default-valued otherwise):
    #: the atom this vector answers (needed to unregister from the
    #: interval registry), the estimated scan-seconds one hit saves,
    #: a sequence number invalidating stale lazy-heap records, and the
    #: probation/protected segment flag (protected = reused at least
    #: once since insertion).
    atom: Optional[AtomicPredicate] = None
    saved_s: float = 0.0
    seq: int = 0
    protected: bool = False

    @classmethod
    def build(
        cls,
        block_id: Hashable,
        predicate_key: str,
        vector: BitVector,
        now: float,
        compress: bool = True,
        atom: Optional[AtomicPredicate] = None,
        saved_s: float = 0.0,
    ) -> "SmartIndexEntry":
        entry = cls(
            block_id=block_id,
            predicate_key=predicate_key,
            length=vector.length,
            created_at=now,
            last_used=now,
            atom=atom,
            saved_s=saved_s,
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
        if self.compressed is None:
            raise IndexError_(f"entry {self.key} holds no payload")
        return rle_decompress(self.compressed, self.length)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.block_id, self.predicate_key)

    @property
    def nbytes(self) -> int:
        payload = len(self.compressed) if self.compressed is not None else (
            self.raw.nbytes if self.raw is not None else 0
        )
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
    #: Semantic-mode counters (stay zero with ``semantic=False``).
    #: Atom answered exactly by bitmap algebra over cached neighbours.
    subsumption_hits: int = 0
    #: Clause answered with a candidate mask for a residual scan.
    residual_hits: int = 0
    #: Fresh insert that was itself the cheapest victim (admission).
    admission_rejects: int = 0
    #: Benefit-per-byte evictions (the semantic-mode LRU replacement).
    evictions_cost: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.complement_hits + self.subsumption_hits + self.misses

    def miss_ratio(self) -> float:
        return self.misses / self.lookups if self.lookups else 0.0


@dataclass
class ResidualClause:
    """A clause answered by a candidate superset instead of a full hit.

    ``mask`` over-approximates the clause's true-set (the NaN rows a
    complement vector admits only widen it); the executor evaluates the
    clause on candidate rows only and ANDs the result back in.
    ``fraction`` is the candidate row fraction — what the leaf charges
    I/O and decode CPU for.
    """

    clause: Clause
    mask: BitVector
    fraction: float


def _locked(method):
    """Serialize a public entry point on the instance's ``_lock``.

    A manager is safe under concurrent callers probing and inserting
    from real OS threads: an RLock (public methods call other public
    methods) keeps the cache's books — ``_bytes``, the eviction heaps,
    the secondary indexes — consistent without per-structure locking.
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
        sweep_interval_s: float = DEFAULT_SWEEP_INTERVAL_S,
        semantic: bool = False,
        residual_max_fraction: float = DEFAULT_RESIDUAL_MAX_FRACTION,
    ):
        if memory_budget_bytes <= 0:
            raise IndexError_("index memory budget must be positive")
        self._lock = threading.RLock()
        self.memory_budget_bytes = memory_budget_bytes
        self.ttl_s = ttl_s
        self.compress = compress
        self.sweep_interval_s = sweep_interval_s
        self.semantic = semantic
        self.residual_max_fraction = residual_max_fraction
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
        # Semantic-mode state: the interval registry mirrors the cached
        # atoms; the frequency sketch tracks probe demand per predicate
        # key (aged by halving); the two lazy min-heaps hold
        # (score, seq, key) records for the probation and protected
        # segments — stale records (seq mismatch or promoted entry) are
        # dropped on pop, under-scored records are re-pushed.
        self._registry = IntervalRegistry()
        self._freq: Counter = Counter()
        self._freq_total = 0
        self._seq = 0
        self._heap_probation: List[Tuple[float, int, Tuple[str, str]]] = []
        self._heap_protected: List[Tuple[float, int, Tuple[str, str]]] = []
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
        return self._lookup_atom(block_id, atom, now)

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
        return self._lookup_clause(block_id, clause, now)

    @_locked
    def cover(
        self, block_id: Hashable, cnf: ConjunctiveForm, now: float, span=None
    ) -> Tuple[Optional[BitVector], List[Clause]]:
        """Try to answer a whole scan filter from the cache.

        Returns ``(mask, missing_clauses)``.  ``mask`` is the AND of the
        clause vectors found; ``missing_clauses`` are the ones that must
        be evaluated against data.  Full cover ⇔ ``missing_clauses == []``
        — then the block scan and predicate evaluation are both skipped.

        The TTL sweep runs exactly once per cover call (not once per
        atom), so a multi-clause CNF probe does not multiply sweep cost;
        see ``stats.ttl_sweeps``.  The lock, too, is taken once: the
        probes go through the lookups' unlocked halves.

        ``span`` (a :class:`~repro.obs.trace.Span`, or None) is tagged
        with this probe's hit/miss deltas.
        """
        before = (
            (self.stats.hits, self.stats.complement_hits, self.stats.misses)
            if span is not None
            else None
        )
        self._expire(now)
        mask: Optional[BitVector] = None
        missing: List[Clause] = []
        for clause in cnf.clauses:
            vec = self._lookup_clause(block_id, clause, now) if clause.is_indexable else None
            if vec is None:
                missing.append(clause)
            else:
                mask = vec if mask is None else (mask & vec)
        if before is not None:
            span.tag("atom_hits", self.stats.hits - before[0])
            span.tag("complement_hits", self.stats.complement_hits - before[1])
            span.tag("atom_misses", self.stats.misses - before[2])
        return mask, missing

    def _lookup_atom(
        self, block_id: Hashable, atom: AtomicPredicate, now: float
    ) -> Optional[BitVector]:
        """:meth:`lookup_atom`, lock held and sweep done."""
        entry = self._touch((block_id, atom.key), now)
        if entry is not None:
            self.stats.hits += 1
            return entry.vector()
        entry = self._touch((block_id, atom.complement().key), now)
        if entry is not None:
            self.stats.complement_hits += 1
            return ~entry.vector()
        self.stats.misses += 1
        return None

    def _lookup_clause(self, block_id: Hashable, clause: Clause, now: float) -> Optional[BitVector]:
        """:meth:`lookup_clause` of an indexable clause, lock held and sweep done."""
        result: Optional[BitVector] = None
        for atom in clause.atoms:
            vec = self._lookup_atom(block_id, atom, now)
            if vec is None:
                return None
            result = vec if result is None else (result | vec)
        return result

    # -- semantic probe layer (flag-gated; see module docstring) -----------

    @_locked
    def cover_semantic(
        self, block_id: Hashable, cnf: ConjunctiveForm, now: float, span=None
    ) -> Tuple[Optional[BitVector], List[Clause], List[ResidualClause]]:
        """Subsumption-aware :meth:`cover`.

        Returns ``(mask, missing, residuals)``: ``mask`` ANDs the
        exactly answered clauses (exact, complement, or derived hits);
        ``residuals`` are clauses answered with a candidate superset
        mask for a partial re-scan; ``missing`` must be evaluated in
        full.  Requires ``semantic=True``.
        """
        if not self.semantic:
            raise IndexError_("cover_semantic requires semantic=True")
        before = (
            (
                self.stats.hits,
                self.stats.complement_hits,
                self.stats.misses,
                self.stats.subsumption_hits,
                self.stats.residual_hits,
            )
            if span is not None
            else None
        )
        self._expire(now)
        mask: Optional[BitVector] = None
        missing: List[Clause] = []
        residuals: List[ResidualClause] = []
        for clause in cnf.clauses:
            if not clause.is_indexable:
                missing.append(clause)
                continue
            vecs: List[Optional[BitVector]] = []
            resolved = True
            for atom in clause.atoms:
                vec = self._probe_atom_semantic(block_id, atom, now)
                vecs.append(vec)
                if vec is None:
                    resolved = False
            if resolved:
                clause_vec = vecs[0]
                for vec in vecs[1:]:
                    clause_vec = clause_vec | vec
                mask = clause_vec if mask is None else (mask & clause_vec)
                continue
            residual = self._candidate_clause(block_id, clause, vecs, now)
            if residual is not None:
                residuals.append(residual)
                self.stats.residual_hits += 1
            else:
                missing.append(clause)
        if before is not None:
            span.tag("atom_hits", self.stats.hits - before[0])
            span.tag("complement_hits", self.stats.complement_hits - before[1])
            span.tag("atom_misses", self.stats.misses - before[2])
            span.tag("subsumption_hits", self.stats.subsumption_hits - before[3])
            span.tag("residual_clauses", self.stats.residual_hits - before[4])
            if residuals:
                span.tag(
                    "residual_fraction",
                    round(sum(r.fraction for r in residuals) / len(residuals), 4),
                )
        return mask, missing, residuals

    def _probe_atom_semantic(
        self, block_id: Hashable, atom: AtomicPredicate, now: float
    ) -> Optional[BitVector]:
        """Exact → complement → derived-by-composition, with stats."""
        self._bump_freq(atom.key)
        entry = self._touch((block_id, atom.key), now)
        if entry is not None:
            self.stats.hits += 1
            return entry.vector()
        entry = self._touch((block_id, atom.complement().key), now)
        if entry is not None:
            self.stats.complement_hits += 1
            return ~entry.vector()
        vec = self._derive_atom(block_id, atom, now)
        if vec is not None:
            self.stats.subsumption_hits += 1
            # Materialize: the composition is exact, so future probes of
            # this atom (and its complement) become plain hits.
            self._insert_vector(block_id, atom, vec, now)
            return vec
        self.stats.misses += 1
        return None

    def _derive_atom(
        self, block_id: Hashable, atom: AtomicPredicate, now: float
    ) -> Optional[BitVector]:
        """Exact bitmap-algebra composition from same-value cached atoms.

        Every identity below uses only positively stored vectors, which
        makes the result bit-identical to evaluating the atom — NaN rows
        included (NaN fails EQ/LT/LE/GT/GE, and set algebra over sets
        that all exclude NaN cannot re-admit it).  NE is never derived
        here: its answer is the EQ complement, which the complement
        probe above already finds.
        """
        op = atom.op
        if op not in _DERIVABLE_OPS:
            return None
        found = self._registry.same_value(block_id, atom.column, atom.value)
        if not found:
            return None

        def vec(want: BinaryOperator) -> Optional[BitVector]:
            key = found.get(want)
            if key is None:
                return None
            entry = self._touch((block_id, key), now)
            return entry.vector() if entry is not None else None

        if op is BinaryOperator.EQ:
            le = vec(BinaryOperator.LE)
            ge = vec(BinaryOperator.GE)
            if le is not None and ge is not None:
                return le & ge  # {x<=v} ∩ {x>=v} = {x=v}
            lt = vec(BinaryOperator.LT)
            if le is not None and lt is not None:
                return le.andnot(lt)  # {x<=v} \ {x<v} = {x=v}
            gt = vec(BinaryOperator.GT)
            if ge is not None and gt is not None:
                return ge.andnot(gt)
            return None
        if op is BinaryOperator.LE:
            lt = vec(BinaryOperator.LT)
            eq = vec(BinaryOperator.EQ)
            if lt is not None and eq is not None:
                return lt | eq
            return None
        if op is BinaryOperator.GE:
            gt = vec(BinaryOperator.GT)
            eq = vec(BinaryOperator.EQ)
            if gt is not None and eq is not None:
                return gt | eq
            return None
        if op is BinaryOperator.LT:
            le = vec(BinaryOperator.LE)
            eq = vec(BinaryOperator.EQ)
            if le is not None and eq is not None:
                return le.andnot(eq)
            return None
        # GT
        ge = vec(BinaryOperator.GE)
        eq = vec(BinaryOperator.EQ)
        if ge is not None and eq is not None:
            return ge.andnot(eq)
        return None

    def _candidate_clause(
        self,
        block_id: Hashable,
        clause: Clause,
        vecs: List[Optional[BitVector]],
        now: float,
    ) -> Optional[ResidualClause]:
        """Build a candidate superset mask for a partially missed clause.

        Per atom: its exact vector if the probe resolved, else the AND
        of the registry's tightest cached supersets.  The clause mask is
        the OR across atoms (clause ⊆ OR of per-atom supersets).  None
        when some atom has no cached superset or the candidate fraction
        is too high to be worth a partial scan.
        """
        candidate: Optional[BitVector] = None
        for atom, vec in zip(clause.atoms, vecs):
            atom_vec = vec
            if atom_vec is None:
                atom_vec = self._candidate_atom(block_id, atom, now)
            if atom_vec is None:
                return None
            candidate = atom_vec if candidate is None else (candidate | atom_vec)
        if candidate is None:
            return None
        fraction = candidate.count() / candidate.length if candidate.length else 0.0
        if fraction > self.residual_max_fraction:
            return None
        return ResidualClause(clause, candidate, fraction)

    def _candidate_atom(
        self, block_id: Hashable, atom: AtomicPredicate, now: float
    ) -> Optional[BitVector]:
        """AND of every tightest cached superset of this atom."""
        result: Optional[BitVector] = None
        for cand in self._registry.superset_candidates(block_id, atom):
            entry = self._touch((block_id, cand.predicate_key), now)
            if entry is None:
                continue  # registry momentarily ahead of an eviction
            vec = ~entry.vector() if cand.invert else entry.vector()
            result = vec if result is None else (result & vec)
        return result

    @_locked
    def benefit_snapshot(self) -> Dict[str, float]:
        """Observed benefit per predicate key for :class:`IndexAdvisor`.

        Sums ``saved_s × realized-plus-demanded reuse`` over the live
        entries of each key — the same quantity the eviction score
        maximizes per byte, aggregated for advisory ranking.
        """
        out: Dict[str, float] = {}
        for entry in self._entries.values():
            reuse = entry.hit_count + self._freq.get(entry.predicate_key, 0)
            out[entry.predicate_key] = out.get(entry.predicate_key, 0.0) + (
                entry.saved_s * reuse
            )
        return out

    @_locked
    def insert(
        self,
        block_id: Hashable,
        atom: AtomicPredicate,
        mask: np.ndarray,
        now: float,
        saved_s: Optional[float] = None,
    ) -> None:
        """Record a freshly evaluated predicate result (§IV-C-2:
        "Feisu creates a SmartIndex each time a query predicate is
        evaluated in a leaf server").

        ``saved_s`` is the estimated scan-seconds one future hit saves —
        the numerator of the semantic-mode benefit-per-byte score.
        Ignored (and optional) with ``semantic=False``.
        """
        self._insert_vector(block_id, atom, BitVector.from_bool_array(mask), now, saved_s)

    def _insert_vector(
        self,
        block_id: Hashable,
        atom: AtomicPredicate,
        vector: BitVector,
        now: float,
        saved_s: Optional[float] = None,
    ) -> None:
        if saved_s is None:
            saved_s = vector.length * DEFAULT_SAVED_S_PER_ROW
        predicate_key = atom.key  # a formatted string: build it once
        entry = SmartIndexEntry.build(
            block_id,
            predicate_key,
            vector,
            now,
            compress=self.compress,
            atom=atom,
            saved_s=saved_s,
        )
        entry.preferred = predicate_key in self._preferred_predicates
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
        if self.semantic:
            self._seq += 1
            entry.seq = self._seq
            self._registry.add(block_id, atom)
            heapq.heappush(self._heap_probation, (self._score(entry), entry.seq, key))
            self._enforce_budget(inserted=key)
        else:
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

    def _touch(self, key: Tuple[str, str], now: float) -> Optional[SmartIndexEntry]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        entry.last_used = now
        entry.hit_count += 1
        self._entries.move_to_end(key)
        if self.semantic and not entry.protected:
            # First reuse promotes out of the probation segment; one-shot
            # entries never promote and are the preferred victims.
            entry.protected = True
            heapq.heappush(self._heap_protected, (self._score(entry), entry.seq, key))
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

    def _enforce_budget(self, inserted: Optional[Tuple[str, str]] = None) -> None:
        if self.semantic:
            while self._bytes > self.memory_budget_bytes and self._entries:
                victim = self._pop_victim()
                if victim is None:
                    break
                self._remove(victim)
                if victim == inserted:
                    # The fresh entry was itself the cheapest victim:
                    # the cache declined admission.
                    self.stats.admission_rejects += 1
                else:
                    self.stats.evictions_cost += 1
            return
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

    def _score(self, entry: SmartIndexEntry) -> float:
        """Benefit per byte: saved-scan-seconds × observed reuse ÷ size.

        Reuse counts both realized hits and the probe *demand* for the
        predicate key (the frequency sketch), so an entry whose key is
        hot keeps a high score even right after (re-)insertion.
        """
        reuse = 1.0 + entry.hit_count + self._freq.get(entry.predicate_key, 0)
        return entry.saved_s * reuse / max(entry.nbytes, 1)

    def _bump_freq(self, predicate_key: str) -> None:
        self._freq[predicate_key] += 1
        self._freq_total += 1
        if self._freq_total >= _FREQ_AGING_LIMIT:
            # Periodic halving keeps the sketch scan-resistant: stale
            # hot keys decay instead of pinning their entries forever.
            for k in list(self._freq):
                nv = self._freq[k] // 2
                if nv:
                    self._freq[k] = nv
                else:
                    del self._freq[k]
            self._freq_total = sum(self._freq.values())

    def _pop_victim(self) -> Optional[Tuple[str, str]]:
        """Lowest benefit-per-byte entry, probation segment first.

        Lazy-heap discipline: records whose seq no longer matches their
        entry (evicted/re-created) or that belong to a promoted entry
        are dropped; records whose entry now scores higher than when
        pushed are re-pushed at the current score (scores only grow
        between aging passes, so this terminates).  Preferred entries
        are set aside and only evicted when nothing else is left.
        """
        deferred: List[Tuple[float, SmartIndexEntry]] = []
        victim: Optional[Tuple[str, str]] = None
        for heap in (self._heap_probation, self._heap_protected):
            is_probation = heap is self._heap_probation
            while heap:
                score, seq, key = heapq.heappop(heap)
                entry = self._entries.get(key)
                if entry is None or entry.seq != seq:
                    continue
                if is_probation and entry.protected:
                    continue  # promoted: its live record is in the other heap
                current = self._score(entry)
                if current > score * (1.0 + 1e-9):
                    heapq.heappush(heap, (current, seq, key))
                    continue
                if entry.preferred:
                    deferred.append((current, entry))
                    continue
                victim = key
                break
            if victim is not None:
                break
        # Re-seat the preferred entries we skipped over.
        for score, entry in deferred:
            target = self._heap_protected if entry.protected else self._heap_probation
            heapq.heappush(target, (score, entry.seq, entry.key))
        if victim is None and deferred:
            victim = min(deferred, key=lambda pair: pair[0])[1].key
        return victim

    def _remove(self, key: Tuple[str, str]) -> None:
        entry = self._entries.pop(key)
        self._bytes -= entry.nbytes
        self._pinned_expired.pop(key, None)
        pred_keys = self._by_predicate.get(entry.predicate_key)
        if pred_keys is not None:
            pred_keys.pop(key, None)
            if not pred_keys:
                del self._by_predicate[entry.predicate_key]
        if self.semantic and entry.atom is not None:
            self._registry.discard(key[0], entry.atom)

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
