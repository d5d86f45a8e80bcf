"""Membership lifecycle (S55): sweep boundary, drain states, unregister."""

import pytest

from repro.cluster.membership import (
    HEARTBEAT_PERIOD_S,
    MISSED_LIMIT,
    ClusterManager,
)
from repro.cluster.messages import WorkerLoad
from repro.errors import ClusterStateError
from repro.sim.events import Simulator
from repro.sim.netmodel import NodeAddress

A0 = NodeAddress(0, 0, 0)
A1 = NodeAddress(0, 0, 1)


def advance(sim: Simulator, to: float) -> None:
    sim.schedule(to - sim.now, lambda: None)
    sim.run()


# -- ClusterManager: sweep boundary ---------------------------------------


def test_sweep_boundary_exactly_at_deadline_stays_alive():
    """The sweep predicate is *strictly* ``last_heartbeat < deadline``: a
    worker whose last heartbeat is exactly MISSED_LIMIT periods old has
    missed only MISSED_LIMIT - 1 beats plus an in-flight one — declaring
    it dead at the boundary would double-fault every slow-but-healthy
    worker.  Pin the boundary on both sides."""
    sim = Simulator()
    cm = ClusterManager(sim)
    cm.register("w0", A0)
    horizon = HEARTBEAT_PERIOD_S * MISSED_LIMIT
    advance(sim, horizon)  # deadline == last_heartbeat exactly
    assert cm.sweep() == []
    assert cm.is_alive("w0")
    advance(sim, horizon + 1e-9)  # one tick past: now overdue
    assert cm.sweep() == ["w0"]
    assert not cm.is_alive("w0")


# -- ClusterManager: drain + unregister -----------------------------------


def test_drain_lifecycle():
    sim = Simulator()
    cm = ClusterManager(sim)
    cm.register("w0", A0)
    cm.register("w1", A1)
    assert not cm.is_draining("w0")
    cm.start_drain("w0")
    assert cm.is_draining("w0")
    assert cm.draining_workers() == ["w0"]
    # Draining is not death: the worker stays alive and heartbeating.
    assert cm.is_alive("w0")
    assert {r.worker_id for r in cm.live_workers()} == {"w0", "w1"}
    cm.cancel_drain("w0")
    assert not cm.is_draining("w0")
    assert cm.draining_workers() == []
    with pytest.raises(ClusterStateError):
        cm.start_drain("ghost")


def test_unregister_removes_worker_and_allows_rejoin():
    sim = Simulator()
    cm = ClusterManager(sim)
    cm.register("w0", A0)
    cm.unregister("w0")
    assert cm.worker_count() == 0
    # Unregistered is gone, not dead: lookups and heartbeats raise.
    with pytest.raises(ClusterStateError):
        cm.is_alive("w0")
    with pytest.raises(ClusterStateError):
        cm.heartbeat("w0", WorkerLoad())
    with pytest.raises(ClusterStateError):
        cm.unregister("w0")
    # The same id may rejoin from scratch.
    cm.register("w0", A1)
    assert cm.is_alive("w0")
    assert cm.address_of("w0") == A1
