"""Heat-based adaptive tiering across storage substrates (S50).

Feisu §IV-B leaves SSD cache preferences to *manual* operator
interference, and cold archival data stays on Fatman forever no matter
how often analysts hammer it.  This module closes both gaps with one
observation loop:

* a :class:`HeatTracker` records per-block access mass with exponential
  decay — frequency, recency and modeled bytes in one number — plus the
  per-node reader census;
* a :class:`TieringDaemon` on the simulated clock ranks blocks by
  benefit-per-byte (``heat × tier_saved_seconds / nbytes``, mirroring the
  SmartIndex cache policy) and

  1. derives SSD cache preferences automatically from the hottest paths
     (no more manual ``prefer()`` calls),
  2. **promotes** hot cold-tier blocks (FatmanFS: 0.25 s first byte,
     half disk bandwidth, one task slot) into the hot
     :class:`~repro.storage.systems.DistributedFS`, placing the first
     replica on the block's most frequent reader,
  3. **demotes** promoted blocks whose heat has decayed, and
  4. exposes ``effective_path``/``tier_of`` hints that the leaf read
     path and the :class:`~repro.cluster.scheduler.JobScheduler` consume
     for locality.

Promotion is a *copy*, never a move: the cold replica set is untouched,
so the :class:`~repro.faults.invariants.InvariantMonitor` replication
floor holds on both systems throughout.  The copy carries its source's
incarnation and is served only while that is the cold path's; the next
cycle demotes a stale one.  A promotion killed mid-transfer
by the fault injector leaves no published hint and no placement entry;
the next cycle retries, and an incarnation check first makes the retry
idempotent (a completed copy whose publish was lost is adopted, not
re-copied or double-counted).

Everything is flag-gated behind ``LeafConfig.enable_tiering`` — with the
flag off the daemon is never constructed and no simulation event, trace
tag or figure byte changes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.errors import FaultInjectedError, PathError
from repro.planner.cost import CostModel
from repro.sim.events import Event, Process, Simulator
from repro.sim.netmodel import NetworkTopology, NodeAddress, TrafficClass
from repro.storage.base import StorageSystem
from repro.storage.maintenance import copy_replica
from repro.storage.router import StorageRouter
from repro.storage.ssd_cache import SsdCache

__all__ = ["HeatRecord", "HeatTracker", "TieringDaemon", "TieringStats"]

#: Mount point inside the hot system for promoted cold blocks; the cold
#: scheme is embedded so two substrates with colliding inner paths cannot
#: overwrite each other's promotions.
PROMOTED_MOUNT = "/_tier"
#: A promoted block whose heat has decayed to this is demoted, and no
#: path this cold is pinned in the SSD caches.
DEMOTE_THRESHOLD = 0.75
#: Promotions started per cycle, at most.
MAX_PROMOTIONS_PER_CYCLE = 8


@dataclass
class HeatRecord:
    """Decayed access mass and reader census for one full path."""

    mass: float = 0.0
    last_access_s: float = 0.0
    #: Largest modeled I/O charge observed for the path — the stable
    #: per-read byte denominator for benefit scoring.
    nbytes: int = 0
    accesses: int = 0
    readers: Counter = field(default_factory=Counter)

    def decayed(self, now: float, half_life_s: float) -> float:
        age = max(0.0, now - self.last_access_s)
        return self.mass * math.pow(0.5, age / half_life_s)


class HeatTracker:
    """Per-path exponentially-decayed access heat.

    Each access adds one unit of mass; mass halves every
    ``half_life_s`` simulated seconds.  Heat therefore blends frequency
    and recency exactly like the SmartIndex benefit score blends hit
    counts with aging (PR 4), and the tracker never touches the
    simulator — callers pass ``now`` in.
    """

    def __init__(self, half_life_s: float = 120.0):
        if half_life_s <= 0:
            raise ValueError("half_life_s must be positive")
        self.half_life_s = half_life_s
        self._records: Dict[str, HeatRecord] = {}

    def record(
        self,
        path: str,
        nbytes: int,
        reader: Optional[NodeAddress] = None,
        now: float = 0.0,
    ) -> None:
        rec = self._records.get(path)
        if rec is None:
            rec = self._records[path] = HeatRecord()
        rec.mass = rec.decayed(now, self.half_life_s) + 1.0
        rec.last_access_s = now
        rec.nbytes = max(rec.nbytes, int(nbytes))
        rec.accesses += 1
        if reader is not None:
            rec.readers[reader] += 1

    def heat(self, path: str, now: float) -> float:
        rec = self._records.get(path)
        return rec.decayed(now, self.half_life_s) if rec is not None else 0.0

    def nbytes(self, path: str) -> int:
        rec = self._records.get(path)
        return rec.nbytes if rec is not None else 0

    def top_reader(self, path: str) -> Optional[NodeAddress]:
        rec = self._records.get(path)
        if rec is None or not rec.readers:
            return None
        return rec.readers.most_common(1)[0][0]

    def paths(self) -> List[str]:
        return sorted(self._records)

    def hottest(self, now: float, k: int) -> List[Tuple[str, float]]:
        """Top-``k`` (path, heat) pairs, hottest first, zero-heat dropped."""
        scored = [(p, r.decayed(now, self.half_life_s)) for p, r in self._records.items()]
        scored = [(p, h) for p, h in scored if h > 0.0]
        scored.sort(key=lambda ph: (-ph[1], ph[0]))
        return scored[:k]


@dataclass
class TieringStats:
    cycles: int = 0
    promotions: int = 0
    demotions: int = 0
    failed_promotions: int = 0
    adopted_promotions: int = 0
    replica_extensions: int = 0
    promoted_bytes: int = 0


class TieringDaemon:
    """Background promotion/demotion loop on the simulated clock.

    One daemon serves the whole cluster: leaves record every access,
    under its *original* catalog path so heat survives promotion and
    demotion, in :attr:`heat` from their I/O charge path and call
    :meth:`effective_path` before resolving a block, the scheduler calls
    :meth:`effective_path` for placement, and
    :meth:`attach_cache` wires each leaf's :class:`SsdCache` for
    automatic preference management.
    """

    def __init__(
        self,
        sim: Simulator,
        net: NetworkTopology,
        router: StorageRouter,
        hot_system: StorageSystem,
        heat: Optional[HeatTracker] = None,
        cost_model: Optional[CostModel] = None,
        period_s: float = 30.0,
        promote_threshold: float = 3.0,
        max_promoted_bytes: int = 256 * 1024 * 1024,
        prefer_top_k: int = 8,
    ):
        self.sim = sim
        self.net = net
        self.router = router
        self.hot_system = hot_system
        self.heat = heat if heat is not None else HeatTracker()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.period_s = period_s
        self.promote_threshold = promote_threshold
        self.max_promoted_bytes = max_promoted_bytes
        self.prefer_top_k = prefer_top_k
        self.stats = TieringStats()
        #: Optional placement-eligibility predicate over node addresses
        #: (S55): when set — the elastic manager wires it to membership
        #: drain/liveness state — promotions and replica extensions skip
        #: nodes that are dead or draining out of the cluster.
        self.placement_ok = None
        #: cold full path -> hot full path, published only after the hot
        #: copy is fully written (crash before publish ⇒ clean retry).
        self._promoted: Dict[str, str] = {}
        self._promoted_bytes: Dict[str, int] = {}
        self._caches: List[SsdCache] = []
        self._auto_preferred: Set[str] = set()
        self._process: Optional[Process] = None

    # -- leaf/scheduler-facing hints --------------------------------------

    def effective_path(self, path: str) -> str:
        """Where reads for ``path`` go: its promoted copy while that is current."""
        hot_full = self._promoted.get(path)
        if hot_full is None or self.router.incarnation(hot_full) != self.router.incarnation(path):
            return path
        return hot_full

    def tier_of(self, path: str) -> str:
        """``promoted`` | ``cold`` | ``hot`` for trace tags and EXPLAIN."""
        if self.effective_path(path) != path:
            return "promoted"
        try:
            system, _ = self.router.resolve(path)
        except PathError:
            return "hot"
        if system.profile.first_byte_latency_s > self.hot_system.profile.first_byte_latency_s:
            return "cold"
        return "hot"

    def promoted_paths(self) -> Dict[str, str]:
        return dict(self._promoted)

    def attach_cache(self, cache: SsdCache) -> None:
        self._caches.append(cache)
        for prefix in self._auto_preferred:
            cache.prefer(prefix)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._process is None:
            self._process = self.sim.every(self, self.run_once, "tiering-daemon", "tiering-cycle")

    # -- one decision cycle -----------------------------------------------

    def _benefit_per_byte(self, path: str, now: float) -> float:
        """``heat × saved_seconds / nbytes`` — the SmartIndex score shape
        applied to substrate promotion."""
        nbytes = self.heat.nbytes(path)
        if nbytes <= 0:
            return 0.0
        try:
            system, _ = self.router.resolve(path)
        except PathError:
            return 0.0
        saved = self.cost_model.tier_saved_seconds(
            nbytes, system.profile, self.hot_system.profile
        )
        return self.heat.heat(path, now) * saved / nbytes

    def _promotion_candidates(self, now: float) -> List[str]:
        out = []
        for path in self.heat.paths():
            if path in self._promoted:
                continue
            if self.heat.heat(path, now) < self.promote_threshold:
                continue
            try:
                system, inner = self.router.resolve(path)
            except PathError:
                continue
            if system is self.hot_system:
                continue
            if system.profile.first_byte_latency_s <= self.hot_system.profile.first_byte_latency_s:
                continue  # already on an equally-hot substrate
            if not system.exists(inner):
                continue
            out.append(path)
        out.sort(key=lambda p: (-self._benefit_per_byte(p, now), p))
        return out

    def run_once(self) -> Generator[Event, None, None]:
        now = self.sim.now
        self.stats.cycles += 1
        # Demote first: decayed blocks and stale copies free budget this cycle.
        for path in list(self._promoted):
            decayed = self.heat.heat(path, now) <= DEMOTE_THRESHOLD
            if decayed or self.effective_path(path) == path:
                self._demote(path)
        budget = self.max_promoted_bytes - sum(self._promoted_bytes.values())
        promoted = 0
        for path in self._promotion_candidates(now):
            if promoted >= MAX_PROMOTIONS_PER_CYCLE:
                break
            est = self.heat.nbytes(path)
            if est > budget:
                continue
            try:
                done = yield from self._promote(path)
            except FaultInjectedError:
                self.stats.failed_promotions += 1
                continue
            if done:
                promoted += 1
                budget -= self._promoted_bytes.get(path, est)
        # Placement follows the readers: a promoted block whose dominant
        # reader shifted gains a replica there.
        for path in list(self._promoted):
            reader = self.heat.top_reader(path)
            if reader is None:
                continue
            try:
                yield from self.extend_replica(path, reader)
            except FaultInjectedError:
                self.stats.failed_promotions += 1
        self._refresh_preferences(now)

    def _promote(self, path: str) -> Generator[Event, None, bool]:
        """Copy one cold block into the hot system near its top reader.

        Idempotent: an already-written hot copy (publish lost to an
        earlier fault) is adopted without a second transfer, and the hint
        is only published after the hot replica set exists in full.
        """
        cold_system, cold_inner = self.router.resolve(path)
        hot_inner = f"{PROMOTED_MOUNT}/{cold_system.scheme}{cold_inner}"
        hot_full = self.router.full_path(self.hot_system, hot_inner)
        incarnation = cold_system.incarnation(cold_inner)
        if self.hot_system.incarnation(hot_inner) == incarnation:
            self._publish(path, hot_full, self.hot_system.size(hot_inner))
            self.stats.adopted_promotions += 1
            return True
        data = cold_system.read(cold_inner)
        reader = self.heat.top_reader(path)
        sources = cold_system.locations(cold_inner)
        if not sources:
            return False
        if reader is not None and self.placement_ok is not None and not self.placement_ok(reader):
            reader = None  # the top reader is dead or draining away
        if reader is None:
            eligible = [
                s for s in sources if self.placement_ok is None or self.placement_ok(s)
            ]
            if not eligible:
                return False
            reader = eligible[0]
        source = min(sources, key=lambda s: self.net.distance(s, reader))
        yield self.net.transfer(source, reader, len(data), TrafficClass.WRITE)
        if cold_system.incarnation(cold_inner) != incarnation:
            return False  # source rewritten or deleted while the copy was in flight
        self.hot_system.write(hot_inner, data, node=reader, incarnation=incarnation)
        self._publish(path, hot_full, len(data))
        self.stats.promotions += 1
        return True

    def _publish(self, path: str, hot_full: str, nbytes: int) -> None:
        self._promoted[path] = hot_full
        self._promoted_bytes[path] = nbytes
        self.stats.promoted_bytes += nbytes

    def _demote(self, path: str) -> None:
        """Retract the hint *first*, then drop the hot copy — a reader
        racing the demotion either sees the hint and a live hot copy, or
        no hint and the cold copy; never a dangling redirect."""
        hot_full = self._promoted.pop(path, None)
        self._promoted_bytes.pop(path, None)
        if hot_full is None:
            return
        _, hot_inner = self.router.resolve(hot_full)
        if self.hot_system.exists(hot_inner):
            self.hot_system.delete(hot_inner)
        self.stats.demotions += 1

    def extend_replica(self, path: str, reader: NodeAddress) -> Generator[Event, None, bool]:
        """Grow a promoted block's hot replica set toward a new frequent
        reader (placement follows the readers, §III-B locality)."""
        hot_full = self._promoted.get(path)
        if hot_full is None:
            return False
        _, hot_inner = self.router.resolve(hot_full)
        if not self.hot_system.exists(hot_inner):
            return False
        holders = self.hot_system.locations(hot_inner)
        if reader in holders or not holders:
            return False
        if self.placement_ok is not None and not self.placement_ok(reader):
            return False  # never grow the replica set onto a departing node
        source = min(holders, key=lambda s: self.net.distance(s, reader))
        if (yield from copy_replica(self.net, self.hot_system, hot_inner, source, reader)):
            self.stats.replica_extensions += 1
            return True
        return False

    # -- automatic SSD preferences ----------------------------------------

    def _refresh_preferences(self, now: float) -> None:
        """Diff the hottest-path set against current auto preferences and
        apply it to every attached cache.  Promoted blocks are preferred
        under *both* names so a cache entry keyed by either survives."""
        desired: Set[str] = set()
        for path, heat in self.heat.hottest(now, self.prefer_top_k):
            if heat <= DEMOTE_THRESHOLD:
                continue  # decayed residue is not worth pinning
            desired.add(path)
            hot_full = self._promoted.get(path)
            if hot_full is not None:
                desired.add(hot_full)
        for prefix in self._auto_preferred - desired:
            for cache in self._caches:
                cache.unprefer(prefix)
        for prefix in desired - self._auto_preferred:
            for cache in self._caches:
                cache.prefer(prefix)
        self._auto_preferred = desired
