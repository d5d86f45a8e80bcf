"""Storage-substrate interface.

Baidu's data lives on business-specific systems — local filesystems on
online service machines, HDFS, the Fatman cold store, KV label storage
(§II).  Each substrate here implements the same small interface so the
common storage layer (:mod:`repro.storage.router`) can route by path
prefix, and so the scheduler can ask any of them where a file's replicas
live.

The bytes are real (blocks round-trip through them); the *service
characteristics* — first-byte latency, per-node task agreements — are the
knobs the paper's leaf servers must honour so that Feisu "doesn't affect
the business critical applications on top of the storage system".
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import PathError, StorageError
from repro.sim.netmodel import NodeAddress

_incarnations = itertools.count(1)  # one for all systems: no two writes share one


@dataclass(frozen=True)
class ServiceProfile:
    """Per-substrate service characteristics honoured by leaf servers."""

    #: Extra latency before the first byte (cold stores pay spin-up).
    first_byte_latency_s: float = 0.0
    #: Multiplier on the node disk's bandwidth when serving this system.
    bandwidth_factor: float = 1.0
    #: Resource consumption agreement (§V-A): concurrent Feisu tasks a
    #: node serving this system will grant before queueing.
    tasks_per_node: int = 4


class StorageSystem(abc.ABC):
    """One storage domain: a namespace of paths plus replica placement."""

    #: Path prefix (without slashes) that routes to this system, e.g. "hdfs".
    scheme: str = ""

    def __init__(self, name: str, domain: str, profile: ServiceProfile):
        self.name = name
        #: Security domain; credentials must carry it (§V-A SSO).
        self.domain = domain
        self.profile = profile
        self._files: Dict[str, bytes] = {}
        self._incarnations: Dict[str, int] = {}  # path -> incarnation of its bytes
        self._placement: Dict[str, List[NodeAddress]] = {}

    # -- namespace ------------------------------------------------------

    def write(self, path: str, data: bytes, node: Optional[NodeAddress] = None) -> int:
        """Store ``data`` at ``path`` with system-specific placement; return
        the fresh incarnation minted for these bytes."""
        if not path.startswith("/"):
            raise PathError(f"storage paths must be absolute, got {path!r}")
        placement = self._place(path, len(data), node)
        if not placement:
            raise StorageError(f"{self.name}: no placement for {path!r}")
        self._files[path] = bytes(data)
        self._incarnations[path] = next(_incarnations)
        self._placement[path] = placement
        return self._incarnations[path]

    def incarnation(self, path: str) -> Optional[int]:
        return self._incarnations.get(path)

    def read(self, path: str) -> bytes:
        try:
            return self._files[path]
        except KeyError:
            raise PathError(f"{self.name}: no such path {path!r}") from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def size(self, path: str) -> int:
        return len(self.read(path))

    def delete(self, path: str) -> None:
        if path not in self._files:
            raise PathError(f"{self.name}: no such path {path!r}")
        del self._files[path]
        del self._incarnations[path]
        del self._placement[path]

    def list_paths(self, prefix: str = "/") -> List[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    @property
    def total_bytes(self) -> int:
        return sum(len(v) for v in self._files.values())

    # -- node pool (S55 elastic membership) ------------------------------

    def nodes(self) -> List[NodeAddress]:
        """The nodes this system may place new replicas on."""
        return list(getattr(self, "_nodes", []))

    def add_node(self, node: NodeAddress) -> bool:
        """Admit a joined node to the placement pool; returns whether it
        was new.  Existing placements are untouched."""
        pool = getattr(self, "_nodes", None)
        if pool is None:
            raise StorageError(f"{self.name}: system has no node pool")
        if node in pool:
            return False
        pool.append(node)
        return True

    def remove_node(self, node: NodeAddress) -> None:
        """Retire a node from the placement pool (S55 decommission).

        Replicas it still holds must be evacuated *first*: retiring a
        node that appears in any placement would strand those blocks on
        a machine that is about to leave."""
        pool = getattr(self, "_nodes", None)
        if pool is None or node not in pool:
            raise StorageError(f"{self.name}: {node} is not in the node pool")
        stranded = self.held_paths(node)
        if stranded:
            raise StorageError(
                f"{self.name}: {node} still holds {len(stranded)} replica(s) "
                f"(e.g. {stranded[0]!r}); evacuate before removal"
            )
        pool.remove(node)

    def held_paths(self, node: NodeAddress) -> List[str]:
        """Paths whose placement includes ``node`` — the evacuation
        work-list for a draining machine."""
        return sorted(p for p, locs in self._placement.items() if node in locs)

    def bytes_on(self, node: NodeAddress) -> int:
        """Total payload bytes replicated onto ``node`` (load-balancing
        input for the rebalancer)."""
        return sum(
            len(self._files[p]) for p, locs in self._placement.items() if node in locs
        )

    # -- placement -------------------------------------------------------

    def locations(self, path: str) -> List[NodeAddress]:
        """Nodes holding a replica of ``path`` — the scheduler's locality
        input (§III-B: schedule to the data, else to a replica)."""
        try:
            return list(self._placement[path])
        except KeyError:
            raise PathError(f"{self.name}: no such path {path!r}") from None

    def drop_replica(self, path: str, node: NodeAddress) -> None:
        """Simulate replica loss (node crash / disk failure)."""
        replicas = self._placement.get(path)
        if not replicas:
            raise PathError(f"{self.name}: no such path {path!r}")
        if node in replicas:
            replicas.remove(node)

    def add_replica(self, path: str, node: NodeAddress) -> bool:
        """Record an extra replica holder; idempotent (a node already in
        the placement is not double-counted).  Returns whether added."""
        try:
            replicas = self._placement[path]
        except KeyError:
            raise PathError(f"{self.name}: no such path {path!r}") from None
        if node in replicas:
            return False
        replicas.append(node)
        return True

    @abc.abstractmethod
    def _place(
        self, path: str, nbytes: int, node: Optional[NodeAddress]
    ) -> List[NodeAddress]:
        """Choose replica holders for a new file."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} files={len(self._files)}>"
