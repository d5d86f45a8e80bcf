"""Replica movement and repair: keeping storage systems at target replication.

The scheduler tolerates replica loss by reading surviving copies
(§III-B), but a healthy deployment *re-replicates*: this maintenance
process periodically scans each block-replicated system for
under-replicated files and copies them onto fresh nodes, charging the
copy traffic to the WRITE class.  It is the substrate-side complement to
Feisu's task-level fault tolerance.

Every replica copy in the system goes through :func:`copy_replica`, the
one publish-after-write primitive: the repairer and the elastic
rebalancer (spread, migrate, evacuate) call it, and
:func:`migrate_replica` / :func:`retire_replica` are the only ways a
replica leaves a node on purpose.  A replica is its block's bytes and
nothing more, so a copy ships ``system.size(inner)`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, Tuple

from repro.sim.events import Event, Process, Simulator
from repro.sim.netmodel import NetworkTopology, NodeAddress, TrafficClass
from repro.storage.base import StorageSystem
from repro.storage.systems import DistributedFS

#: How often the repair scanner wakes up, simulated seconds.
DEFAULT_SCAN_PERIOD_S = 60.0


# -- the replica mover ---------------------------------------------------------


def copy_replica(
    net: NetworkTopology,
    system: StorageSystem,
    inner: str,
    source: NodeAddress,
    target: NodeAddress,
) -> Generator[Event, None, int]:
    """Grow ``inner``'s replica set onto ``target`` from ``source``.

    Returns the bytes shipped, 0 when nothing was published.  The target
    is published only after the transfer lands and only if the path
    still holds the incarnation that was read: a copy that raced a
    rewrite or a delete publishes nothing.  ``add_replica`` is
    idempotent, so a racing or retried copy never double-counts a holder.
    """
    incarnation = system.incarnation(inner)
    if incarnation is None:
        return 0
    holders = system.locations(inner)
    if target in holders or source not in holders:
        return 0
    nbytes = system.size(inner)
    yield net.transfer(source, target, nbytes, TrafficClass.WRITE)
    if system.incarnation(inner) != incarnation or not system.add_replica(inner, target):
        return 0
    return nbytes


def retire_replica(system: StorageSystem, inner: str, node: NodeAddress) -> bool:
    """Drop ``node``'s replica of ``inner`` while the path stays above its
    replication floor; returns whether it was dropped."""
    if not system.exists(inner):
        return False
    holders = system.locations(inner)
    if node not in holders or len(holders) <= getattr(system, "replication", 1):
        return False
    system.drop_replica(inner, node)
    return True


def migrate_replica(
    net: NetworkTopology,
    system: StorageSystem,
    inner: str,
    source: NodeAddress,
    target: NodeAddress,
) -> Generator[Event, None, Optional[int]]:
    """Move one replica: copy to ``target``, then retire ``source``.

    Returns the bytes shipped (0 when an earlier attempt's published copy
    was adopted), or None when the replica did not move.  The add
    publishes before the drop, so the replica count never dips below its
    starting point.  A kill between the two leaves the block
    over-replicated; the retry sees the published target and finishes by
    retiring the source alone, so the move is exactly-once in effect.
    """
    if not system.exists(inner) or source not in system.locations(inner):
        return None  # gone, or already migrated away
    if target in system.locations(inner):
        return 0 if retire_replica(system, inner, source) else None
    shipped = yield from copy_replica(net, system, inner, source, target)
    if not shipped:
        return None
    retire_replica(system, inner, source)
    return shipped


# -- the repairer --------------------------------------------------------------


@dataclass
class RepairReport:
    """Outcome of one repair scan."""

    files_scanned: int = 0
    under_replicated: int = 0
    repairs_done: int = 0
    bytes_copied: int = 0
    unrepairable: List[str] = field(default_factory=list)


class ReplicaRepairer:
    """Scans one DistributedFS and restores its replication factor."""

    def __init__(
        self,
        sim: Simulator,
        net: NetworkTopology,
        system: DistributedFS,
        scan_period_s: float = DEFAULT_SCAN_PERIOD_S,
        placement_ok: Optional[Callable[[NodeAddress], bool]] = None,
    ):
        self.sim = sim
        self.net = net
        self.system = system
        self.period_s = scan_period_s
        #: Optional target-eligibility predicate (the elastic manager wires
        #: it to membership liveness and drain state): repairing onto a
        #: dead or draining node restores nothing.
        self.placement_ok = placement_ok
        self.total_repairs = 0
        self._process: Optional[Process] = None

    # -- one-shot scan ------------------------------------------------------

    def find_under_replicated(self) -> List[Tuple[str, int]]:
        """(path, missing_count) for every file below target replication."""
        out = []
        target = self.system.replication
        for path in self.system.list_paths():
            have = len(self.system.locations(path))
            if have < target:
                out.append((path, target - have))
        return out

    def repair_once(self) -> Generator[Event, None, RepairReport]:
        """Process generator: scan and repair everything found."""
        report = RepairReport()
        report.files_scanned = len(self.system.list_paths())
        for path, missing in self.find_under_replicated():
            report.under_replicated += 1
            if not self.system.exists(path):
                continue  # deleted during an earlier copy
            survivors = self.system.locations(path)
            if not survivors:
                report.unrepairable.append(path)
                continue
            for _ in range(missing):
                target_node = self._pick_target(path, survivors)
                if target_node is None:
                    report.unrepairable.append(path)
                    break
                source = min(survivors, key=lambda s: self.net.distance(s, target_node))
                shipped = yield from copy_replica(self.net, self.system, path, source, target_node)
                if not shipped:
                    break  # rewritten or deleted mid-copy: the next scan re-counts it
                survivors = self.system.locations(path)
                report.repairs_done += 1
                report.bytes_copied += shipped
                self.total_repairs += 1
        return report

    def _pick_target(self, path: str, existing: List[NodeAddress]) -> Optional[NodeAddress]:
        """An eligible node not already holding the file, preferring a rack
        no current replica occupies (the HDFS placement invariant)."""
        held = set(existing)
        held_racks = {(a.datacenter, a.rack) for a in existing}
        candidates = [
            n
            for n in self.system.nodes()
            if n not in held and (self.placement_ok is None or self.placement_ok(n))
        ]
        if not candidates:
            return None
        off_rack = [n for n in candidates if (n.datacenter, n.rack) not in held_racks]
        pool = off_rack or candidates
        return pool[self.system._rng.randrange(len(pool))]  # noqa: SLF001

    # -- background loop ------------------------------------------------------

    def start(self) -> None:
        """Run repair scans forever on the simulation clock."""
        if self._process is None:
            self._process = self.sim.every(
                self, self.repair_once, f"repair-{self.system.name}", "repair-scan"
            )
