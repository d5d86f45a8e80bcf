"""Primary/backup replication for master components (§III-C).

"For reliability, components (the primary) are running with backups,
which don't provide service until the primary ones crash.  The backup
components get checkpoint and operations log from the primary in
realtime, so that they will reach the same running state as the primary.
Since the backup ones are shadows of the primary, they can provide
functionalities such as monitoring running information to reduce the
burdens on the primary."

:class:`PrimaryBackup` is a generic replicated state machine capturing
exactly that contract: writes go through :meth:`apply` on the primary and
stream to the shadow with a replication lag; reads for *monitoring*
purposes may be served by the shadow; on primary failure the shadow
replays any remaining log and takes over.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Generic, List, Optional, Tuple, TypeVar

from repro.errors import ClusterStateError
from repro.sim.events import Simulator

S = TypeVar("S")

#: How far (in applied ops) the shadow may trail the primary.
DEFAULT_MAX_LAG_OPS = 32


@dataclass
class _Replica(Generic[S]):
    state: S
    applied: int = 0


class PrimaryBackup(Generic[S]):
    """A replicated component: one primary, one shadow, one op log.

    ``make_state`` builds an empty state; ``ops`` are ``(fn, args)``
    closures applied identically to both replicas.  Determinism of ops is
    the caller's contract (all our cluster state ops are deterministic).
    """

    def __init__(
        self,
        sim: Simulator,
        make_state: Callable[[], S],
        name: str = "component",
        checkpoint_interval_ops: Optional[int] = None,
        copy_state: Callable[[S], S] = copy.deepcopy,
    ):
        self.sim = sim
        self.name = name
        #: Copies the live primary's state for a new shadow.  A component
        #: whose state holds only immutable values can pass a shallow one.
        self._copy_state = copy_state
        self._primary: Optional[_Replica[S]] = _Replica(make_state())
        self._shadow: Optional[_Replica[S]] = _Replica(make_state())
        #: Ops the shadow may still have to apply; entry i is global op
        #: ``_log_base + i``.  The shadow is the log's only reader, so a
        #: checkpoint empties it and nothing is kept while no shadow runs.
        self._log: List[Tuple[Callable[..., None], Tuple[Any, ...]]] = []
        self._log_base = 0
        #: Auto-checkpoint (sync + truncate) once the tail reaches this
        #: many ops; None = only explicit sync_shadow() checkpoints.
        self.checkpoint_interval_ops = checkpoint_interval_ops
        self.failovers = 0

    # -- writes ------------------------------------------------------------

    def apply(self, op: Callable[..., None], *args: Any) -> None:
        """Apply a mutation through the primary and log it for the shadow."""
        if self._primary is None:
            raise ClusterStateError(f"{self.name}: no primary to serve writes")
        op(self._primary.state, *args)
        self._primary.applied += 1
        if self._shadow is None:
            return  # nobody to replicate to: the op is not retained
        self._log.append((op, args))
        self._replicate()
        if (
            self.checkpoint_interval_ops is not None
            and len(self._log) >= self.checkpoint_interval_ops
        ):
            self.sync_shadow()

    def _replicate(self) -> None:
        """Stream the op log to the shadow, keeping lag bounded."""
        while self._primary.applied - self._shadow.applied > DEFAULT_MAX_LAG_OPS:
            self._catch_up_one()

    def _catch_up_one(self) -> None:
        assert self._shadow is not None
        op, args = self._log[self._shadow.applied - self._log_base]
        op(self._shadow.state, *args)
        self._shadow.applied += 1

    def sync_shadow(self) -> None:
        """Checkpoint: drain the full log into the shadow and truncate it.

        After the drain both replicas agree, so the shadow's state *is*
        the checkpoint — no copy of it is taken.  A later shadow starts
        from the live primary (:meth:`start_new_shadow`), so the drained
        ops have no reader left and the log is bounded to one checkpoint
        interval's tail at a cost independent of the history's size.
        """
        if self._shadow is None:
            return
        while self._shadow.applied < self._primary.applied:
            self._catch_up_one()
        self._log_base = self._primary.applied
        self._log = []

    @property
    def log_length(self) -> int:
        """Ops retained in the in-memory tail (post-checkpoint)."""
        return len(self._log)

    # -- reads ----------------------------------------------------------------

    @property
    def state(self) -> S:
        """Authoritative state (primary)."""
        if self._primary is None:
            raise ClusterStateError(f"{self.name}: component entirely down")
        return self._primary.state

    def monitoring_state(self) -> S:
        """Possibly stale state served by the shadow (paper: shadows serve
        monitoring to offload the primary)."""
        if self._shadow is not None:
            return self._shadow.state
        return self.state

    @property
    def shadow_lag_ops(self) -> int:
        if self._shadow is None or self._primary is None:
            return 0
        return self._primary.applied - self._shadow.applied

    # -- failure handling --------------------------------------------------------

    def fail_primary(self) -> None:
        """Crash the primary; the shadow replays the log and takes over."""
        if self._primary is None:
            raise ClusterStateError(f"{self.name}: primary already down")
        if self._shadow is None:
            self._primary = None
            raise ClusterStateError(f"{self.name}: lost both replicas")
        # The shadow replays from the durable op log — not from the dead
        # primary — so recovery needs only the log entries it missed.
        while self._shadow.applied < self._log_base + len(self._log):
            self._catch_up_one()
        self._primary = self._shadow
        self._shadow = None
        self._log_base += len(self._log)
        self._log = []
        self.failovers += 1

    def start_new_shadow(self) -> None:
        """Bring up a fresh shadow from one copy of the live primary.

        The copy is taken at ``applied = primary.applied`` with an empty
        tail: the state a checkpoint plus a replay of the ops since would
        reach, without keeping either around between failovers.
        """
        primary = self._primary
        if primary is None:
            raise ClusterStateError(f"{self.name}: no primary to copy a shadow from")
        self._shadow = _Replica(self._copy_state(primary.state), applied=primary.applied)
        self._log = []
        self._log_base = primary.applied
