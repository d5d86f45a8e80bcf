"""The cross-domain mechanism (§I): sharing schema and access rights.

"Feisu handles the geographical distribution via the cross-domain
mechanism to share the data schema and access rights."  Each datacenter
keeps a local directory replica so planning-time metadata lookups never
cross the WAN; the master's authoritative copy streams ordered updates
(table registrations, grant changes) to every replica over the control
traffic class on a short period.

Replicas are *eventually consistent*: a freshly published table is
visible in the master's datacenter immediately and elsewhere after one
sync round — the trade the paper's geo-distribution forces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.sim.events import Event, Process, Simulator
from repro.sim.netmodel import NetworkTopology, NodeAddress, TrafficClass

#: How often the primary pushes pending updates to each dc replica.
DEFAULT_SYNC_PERIOD_S = 30.0
#: Wire size of one directory update record.
UPDATE_BYTES = 512


@dataclass(frozen=True)
class DirectoryUpdate:
    """One ordered change to the shared metadata."""

    version: int
    kind: str  # "table" | "grant" | "revoke"
    payload: Tuple


@dataclass
class _Replica:
    """One datacenter's directory copy."""

    address: NodeAddress
    version: int = 0
    tables: Dict[str, Dict[str, str]] = field(default_factory=dict)
    grants: set = field(default_factory=set)


class CrossDomainDirectory:
    """Authoritative metadata + per-datacenter replicas."""

    def __init__(
        self,
        sim: Simulator,
        net: NetworkTopology,
        datacenters: int,
        primary_address: NodeAddress = NodeAddress(0, 0, 0),
        sync_period_s: float = DEFAULT_SYNC_PERIOD_S,
    ):
        self.sim = sim
        self.net = net
        self.primary_address = primary_address
        self.period_s = sync_period_s
        self._log: List[DirectoryUpdate] = []
        self._primary = _Replica(primary_address)
        self._replicas: Dict[int, _Replica] = {
            dc: _Replica(NodeAddress(dc, 0, 0)) for dc in range(datacenters)
        }
        self.sync_rounds = 0
        self._process: Optional[Process] = None

    # -- writes (authoritative) ---------------------------------------------

    def _append(self, kind: str, payload: Tuple) -> None:
        update = DirectoryUpdate(len(self._log) + 1, kind, payload)
        self._log.append(update)
        self._apply(self._primary, update)
        # The primary's own datacenter applies synchronously (local bus).
        home = self._replicas.get(self.primary_address.datacenter)
        if home is not None:
            self._catch_up(home)

    def publish_table(self, name: str, schema_dict: Dict[str, str]) -> None:
        self._append("table", (name, tuple(sorted(schema_dict.items()))))

    def publish_grant(self, user: str, table: str) -> None:
        self._append("grant", (user, table))

    def publish_revoke(self, user: str, table: str) -> None:
        self._append("revoke", (user, table))

    @staticmethod
    def _apply(replica: _Replica, update: DirectoryUpdate) -> None:
        if update.kind == "table":
            name, items = update.payload
            replica.tables[name] = dict(items)
        elif update.kind == "grant":
            replica.grants.add(update.payload)
        elif update.kind == "revoke":
            replica.grants.discard(update.payload)
        replica.version = update.version

    def _catch_up(self, replica: _Replica) -> int:
        """Apply every update the replica is missing; returns how many."""
        missing = self._log[replica.version :]
        for update in missing:
            self._apply(replica, update)
        return len(missing)

    # -- reads (replica-local) ------------------------------------------------

    def lookup_table(self, datacenter: int, name: str) -> Optional[Dict[str, str]]:
        """A datacenter's (possibly stale) view of one table's schema."""
        return self._replicas[datacenter].tables.get(name)

    def can_read(self, datacenter: int, user: str, table: str) -> bool:
        return (user, table) in self._replicas[datacenter].grants

    def replica_version(self, datacenter: int) -> int:
        return self._replicas[datacenter].version

    @property
    def version(self) -> int:
        return self._primary.version

    def lag(self, datacenter: int) -> int:
        """Updates a datacenter has not yet applied."""
        return self.version - self.replica_version(datacenter)

    # -- replication ----------------------------------------------------------

    def sync_once(self) -> Generator[Event, None, int]:
        """Push pending updates to every remote replica (one round)."""
        shipped = 0
        for dc, replica in self._replicas.items():
            missing = self.version - replica.version
            if missing <= 0:
                continue
            if replica.address != self.primary_address:
                yield self.net.transfer(
                    self.primary_address,
                    replica.address,
                    UPDATE_BYTES * missing,
                    TrafficClass.CONTROL,
                )
            shipped += self._catch_up(replica)
        self.sync_rounds += 1
        return shipped

    def start(self) -> None:
        """Run sync rounds forever on the simulation clock.  A lost round
        does not stop replication: the versioned log is idempotent, so the
        updates it failed to ship go out on the next period."""
        if self._process is None:
            self._process = self.sim.every(
                self, self.sync_once, "cross-domain-sync", "cross-domain-round"
            )

    def converged(self) -> bool:
        return all(r.version == self.version for r in self._replicas.values())
