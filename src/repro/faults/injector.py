"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`.

One injector instance owns one seeded RNG and one fault log.  The
fabric and storage layers consult it at exactly three interception
points; a cluster without an injector runs byte-identically to one that
never imported this module, and runs no fault code at all:

* :meth:`intercept_transfer` — every cluster message: :meth:`install`
  replaces the topology's ``transfer`` on the instance with a bound
  partial of it, so an uninstalled network pays no per-message branch;
* :meth:`heartbeat_suppressed` — worker heartbeat loops (zombies);
* :meth:`storage_first_byte_extra` — leaf IO charging (slow/cold disks).

The last two are guarded by ``if self.faults is not None`` on the
worker.

Scheduled entries (crashes, restarts, slow-downs) become plain simulator
callbacks at :meth:`install` time.

Determinism: the RNG is consumed only inside simulator callbacks, whose
order is a pure function of the event queue; replaying the same plan and
seed therefore reproduces the identical :attr:`records` log — the chaos
suite's replay test asserts exactly that, and failure reports print the
seed so any scenario can be re-run bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ClusterStateError, FaultInjectedError
from repro.faults.plan import (
    CrashWindow,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    MessageDuplicate,
    RackPartition,
    SlowNode,
    StorageStall,
    ZombieWindow,
)
from repro.obs.trace import Tracer
from repro.sim.events import Event, Simulator
from repro.sim.netmodel import NetworkTopology, NodeAddress, TrafficClass


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, as it happened on the simulated clock."""

    t: float
    kind: str
    detail: str


class FaultInjector:
    """Runtime half of the fault layer: plan + seed → injected faults."""

    def __init__(self, sim: Simulator, plan: FaultPlan, seed: int = 0):
        self.sim = sim
        self.plan = plan
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.records: List[FaultRecord] = []
        #: Injected faults double as trace spans (zero-duration events
        #: under one root), so chaos runs can be inspected like queries.
        self.tracer = Tracer(f"faults-seed{seed}")
        self.tracer.begin("faults", 0.0, seed=seed, entries=len(plan))
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self._workers: Dict[str, object] = {}
        self._partitions = [e for e in plan.entries if isinstance(e, RackPartition)]
        self._zombies = [e for e in plan.entries if isinstance(e, ZombieWindow)]
        self._stalls = [e for e in plan.entries if isinstance(e, StorageStall)]
        self._drops = [e for e in plan.entries if isinstance(e, MessageDrop)]
        self._delays = [e for e in plan.entries if isinstance(e, MessageDelay)]
        self._dups = [e for e in plan.entries if isinstance(e, MessageDuplicate)]

    # -- installation ----------------------------------------------------

    def install(self, cluster) -> "FaultInjector":
        """Hook into a :class:`~repro.core.feisu.FeisuCluster` and schedule
        every time-pinned entry.  Call before driving the simulation."""
        self.cluster = cluster
        # The topology's own transfer, not an earlier injector's: the
        # latest install replaces it.
        net = cluster.net
        net.transfer = partial(self.intercept_transfer, NetworkTopology.transfer.__get__(net))
        for worker in list(cluster.leaves) + list(cluster.stems):
            worker.faults = self
            self._workers[worker.worker_id] = worker
        for entry in self.plan.entries:
            if isinstance(entry, CrashWindow):
                self.sim.schedule(self._delay_until(entry.at), self._crash, entry)
                if entry.restart_after is not None:
                    self.sim.schedule(
                        self._delay_until(entry.at + entry.restart_after),
                        self._restart,
                        entry,
                    )
            elif isinstance(entry, SlowNode):
                self.sim.schedule(self._delay_until(entry.at), self._slow, entry)
                self.sim.schedule(
                    self._delay_until(entry.at + entry.duration), self._unslow, entry
                )
        return self

    def _delay_until(self, at: float) -> float:
        return max(0.0, at - self.sim.now)

    def _worker(self, worker_id: str):
        try:
            return self._workers[worker_id]
        except KeyError:
            raise ClusterStateError(
                f"fault plan names unknown worker {worker_id!r}"
            ) from None

    # -- scheduled-entry callbacks ---------------------------------------

    def _crash(self, entry: CrashWindow) -> None:
        self._worker(entry.worker).crash()
        self._record("crash", entry.worker)

    def _restart(self, entry: CrashWindow) -> None:
        self._worker(entry.worker).recover()
        self._record("restart", entry.worker)

    def _slow(self, entry: SlowNode) -> None:
        self._worker(entry.worker).slow_down(entry.factor)
        self._record("slow_down", f"{entry.worker} x{entry.factor:g}")

    def _unslow(self, entry: SlowNode) -> None:
        self._worker(entry.worker).restore_speed(entry.factor)
        self._record("restore_speed", f"{entry.worker} x{entry.factor:g}")

    # -- interception: RPC fabric ----------------------------------------

    def intercept_transfer(
        self, transfer, src: NodeAddress, dst: NodeAddress, nbytes: int, cls: TrafficClass
    ) -> Event:
        """Apply message policies to one transfer; returns its event.

        ``transfer`` is the topology's own: it carries what the policies
        let through, and a duplicate's ghost copy.

        Node-local transfers never touch the fabric and are exempt.
        Partitions drop deterministically; probabilistic policies draw
        from the seeded RNG in plan order (drop, then delay, then
        duplicate), so the draw sequence is replayable.
        """
        if src == dst:
            return transfer(src, dst, nbytes, cls)
        now = self.sim.now
        if self._partitioned(src, dst, now):
            return self._drop(src, dst, nbytes, cls, reason="partition")
        for pol in self._drops:
            if self._matches(pol, src, dst, cls, now) and self._fires(pol.probability):
                return self._drop(src, dst, nbytes, cls, reason="drop")
        extra = 0.0
        for pol in self._delays:
            if self._matches(pol, src, dst, cls, now) and self._fires(pol.probability):
                extra += pol.extra_s
        for pol in self._dups:
            in_window = pol.at <= now < pol.at + pol.duration
            if (
                in_window
                and (pol.cls is None or pol.cls == cls)
                and self._fires(pol.probability)
            ):
                self.duplicated += 1
                self._record("duplicate", self._msg(src, dst, nbytes, cls))
                transfer(src, dst, nbytes, cls)  # ghost copy loads the links
        inner = transfer(src, dst, nbytes, cls)
        if extra <= 0.0:
            return inner
        self.delayed += 1
        self._record("delay", f"{self._msg(src, dst, nbytes, cls)} +{extra:g}s")
        held = self.sim.event(name=f"delayed-{src}->{dst}")

        def relay(ev: Event) -> None:
            if ev.ok:
                self.sim.schedule(extra, held.succeed, ev._value)  # noqa: SLF001
            else:  # pragma: no cover - transfer events always succeed
                self.sim.schedule(extra, held.fail, ev._exc)  # noqa: SLF001

        inner.add_callback(relay)
        return held

    def _drop(
        self, src: NodeAddress, dst: NodeAddress, nbytes: int, cls: TrafficClass, reason: str
    ) -> Event:
        """A dropped message: the sender sees an RPC timeout, not silence.

        The returned event fails with :class:`FaultInjectedError` after
        ``plan.rpc_timeout_s``, so waiting processes unblock through their
        normal error paths (task retry, backup, heartbeat skip) instead of
        stranding the event loop.
        """
        self.dropped += 1
        self._record(reason, self._msg(src, dst, nbytes, cls))
        ev = self.sim.event(name=f"dropped-{src}->{dst}")
        exc = FaultInjectedError(
            f"message {src}->{dst} ({cls.name}, {nbytes}B) {reason} by fault plan "
            f"(seed={self.seed})"
        )
        self.sim.schedule(self.plan.rpc_timeout_s, ev.fail, exc)
        return ev

    def _partitioned(self, src: NodeAddress, dst: NodeAddress, now: float) -> bool:
        for p in self._partitions:
            if not (p.at <= now < p.at + p.duration):
                continue
            inside_src = (src.datacenter, src.rack) in p.racks
            inside_dst = (dst.datacenter, dst.rack) in p.racks
            if inside_src != inside_dst:
                return True
        return False

    @staticmethod
    def _matches(pol, src: NodeAddress, dst: NodeAddress, cls: TrafficClass, now: float) -> bool:
        if not (pol.at <= now < pol.at + pol.duration):
            return False
        if pol.cls is not None and pol.cls != cls:
            return False
        if pol.src is not None and pol.src != src:
            return False
        if pol.dst is not None and pol.dst != dst:
            return False
        return True

    def _fires(self, probability: float) -> bool:
        if probability >= 1.0:
            return True
        if probability <= 0.0:
            return False
        return float(self.rng.random()) < probability

    # -- interception: membership ----------------------------------------

    def heartbeat_suppressed(self, worker_id: str) -> bool:
        """True while ``worker_id`` is inside a zombie window."""
        now = self.sim.now
        for z in self._zombies:
            if z.worker == worker_id and z.at <= now < z.at + z.duration:
                self._record("zombie", f"heartbeat from {worker_id} swallowed")
                return True
        return False

    # -- interception: storage -------------------------------------------

    def storage_first_byte_extra(self, system_name: str, worker_id: str) -> float:
        """Extra first-byte seconds for a task on ``worker_id`` reading
        from ``system_name`` right now (0.0 outside stall windows)."""
        now = self.sim.now
        extra = 0.0
        for s in self._stalls:
            if s.system != system_name or not (s.at <= now < s.at + s.duration):
                continue
            if s.workers is not None and worker_id not in s.workers:
                continue
            extra += s.extra_first_byte_s
        if extra > 0.0:
            self._record(
                "storage_stall", f"{system_name} first byte +{extra:g}s on {worker_id}"
            )
        return extra

    # -- the fault log ----------------------------------------------------

    @staticmethod
    def _msg(src: NodeAddress, dst: NodeAddress, nbytes: int, cls: TrafficClass) -> str:
        return f"{cls.name} {src}->{dst} ({nbytes}B)"

    def _record(self, kind: str, detail: str) -> None:
        self.records.append(FaultRecord(self.sim.now, kind, detail))
        if self.tracer.root is not None:
            self.tracer.root.event(kind, self.sim.now, detail=detail)

    def log_fingerprint(self) -> Tuple[Tuple[float, str, str], ...]:
        """Hashable view of the fault log for replay comparison."""
        return tuple((round(r.t, 9), r.kind, r.detail) for r in self.records)

    def describe(self, limit: Optional[int] = 20) -> str:
        """Human-readable tail of the fault log for failure reports."""
        rows = self.records if limit is None else self.records[-limit:]
        lines = [f"fault log (seed={self.seed}, {len(self.records)} records):"]
        if limit is not None and len(self.records) > limit:
            lines.append(f"  ... {len(self.records) - limit} earlier records elided")
        lines.extend(f"  t={r.t:10.4f}  {r.kind:<14} {r.detail}" for r in rows)
        return "\n".join(lines)
