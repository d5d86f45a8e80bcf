"""The one replica mover and the one daemon loop.

Every replica copy — repair, rebalancer spread and migration, tiering
replica extension — is ``repro.storage.maintenance.copy_replica``, and
every maintenance daemon runs on ``Simulator.every``.  These tests drive
each caller through its own public entry point, so they pin the shared
rules where the callers use them: a copy that races a rewrite of its
block publishes nothing, and a cycle killed by the fault layer is
followed by the next period's cycle.
"""

from types import SimpleNamespace

import pytest

from repro.cluster.domains import CrossDomainDirectory
from repro.cluster.elastic import ElasticConfig, Rebalancer
from repro.errors import FaultInjectedError
from repro.sim.events import Simulator
from repro.sim.netmodel import NetworkTopology, TopologySpec
from repro.storage.layouts import LayoutDaemon
from repro.storage.maintenance import ReplicaRepairer
from repro.storage.router import StorageRouter
from repro.storage.systems import DistributedFS, FatmanFS
from repro.storage.tiering import TieringDaemon
from repro.workload.conversion import ConversionDaemon

SPEC = TopologySpec(1, 2, 4)
OLD = b"o" * 1_000_000  # big enough that a copy spans simulated time
NEW = b"n" * 1_000_000


def _env():
    sim = Simulator()
    net = NetworkTopology(sim, SPEC)
    router = StorageRouter()
    fs = DistributedFS(SPEC.addresses(), seed=3)
    router.register(fs, default=True)
    return sim, net, router, fs


def _race(sim, system, inner, gen, node=None):
    """Run ``gen`` while ``inner`` is rewritten 1 µs into its copy; returns
    the placement the rewrite itself chose."""
    placed = []

    def rewrite():
        system.write(inner, NEW, node=node)
        placed.extend(system.locations(inner))

    sim.schedule(1e-6, rewrite)
    sim.run_until_complete(sim.process(gen))
    return placed


# -- a copy that races a rewrite publishes nothing ---------------------------


def _repairer():
    sim, net, router, fs = _env()
    fs.write("/f", OLD)
    fs.drop_replica("/f", fs.locations("/f")[0])
    repairer = ReplicaRepairer(sim, net, fs)
    placed = _race(sim, fs, "/f", repairer.repair_once())
    return fs, "/f", placed, repairer.total_repairs


def _spread():
    sim, net, router, fs = _env()
    fs.write("/f", OLD)
    reb = Rebalancer(
        sim, net, router, [fs],
        config=ElasticConfig(spread_heat_threshold=1.0, max_migrations_per_cycle=0),
    )
    reb.heat.record(router.full_path(fs, "/f"), len(OLD), now=0.0)
    placed = _race(sim, fs, "/f", reb.run_once())
    return fs, "/f", placed, reb.stats.spreads


def _migrate():
    sim, net, router, fs = _env()
    fs.write("/f", OLD)  # three loaded nodes, five empty: a balancing move
    reb = Rebalancer(
        sim, net, router, [fs],
        config=ElasticConfig(spread_heat_threshold=1e9, max_migrations_per_cycle=1),
    )
    placed = _race(sim, fs, "/f", reb.run_once())
    return fs, "/f", placed, reb.stats.migrations + reb.stats.adopted_migrations


def _extend_replica():
    sim, net, router, hot = _env()
    cold = FatmanFS(SPEC.addresses(), seed=4)
    router.register(cold)
    daemon = TieringDaemon(sim, net, router, hot_system=hot)
    cold.write("/t/b0", OLD)
    for _ in range(5):
        daemon.record_access("/ffs/t/b0", len(OLD), reader=SPEC.addresses()[0], now=0.0)
    sim.run_until_complete(sim.process(daemon.run_once()))
    _, hot_inner = router.resolve(daemon.effective_path("/ffs/t/b0"))
    reader = next(n for n in SPEC.addresses() if n not in hot.locations(hot_inner))
    # The racing rewrite is a re-promotion, which lands on the new reader.
    placed = _race(sim, hot, hot_inner, daemon.extend_replica("/ffs/t/b0", reader), node=reader)
    return hot, hot_inner, placed, daemon.stats.replica_extensions


@pytest.mark.parametrize(
    "race",
    [_repairer, _spread, _migrate, _extend_replica],
    ids=["repairer", "spread", "migrate", "extend_replica"],
)
def test_copy_racing_a_rewrite_publishes_nothing(race):
    system, inner, placed, counted = race()
    # The holders are exactly the ones the rewrite placed: no node that
    # received the old bytes is listed as a holder of the new ones.
    assert system.locations(inner) == placed
    assert len(placed) == system.replication
    assert system.read(inner) == NEW
    assert counted == 0


# -- a killed cycle ends that cycle, not the daemon --------------------------


def _daemons(sim):
    net = NetworkTopology(sim, SPEC)
    router = StorageRouter()
    fs = DistributedFS(SPEC.addresses(), seed=3)
    router.register(fs, default=True)
    cluster = SimpleNamespace(sim=sim)
    return {
        "tiering": (TieringDaemon(sim, net, router, hot_system=fs, period_s=10.0), "run_once"),
        "layouts": (LayoutDaemon(sim, net, router, period_s=10.0), "run_once"),
        "rebalancer": (
            Rebalancer(sim, net, router, [fs], config=ElasticConfig(rebalance_period_s=10.0)),
            "run_once",
        ),
        "repairer": (ReplicaRepairer(sim, net, fs, scan_period_s=10.0), "repair_once"),
        "conversion": (
            ConversionDaemon(cluster, SPEC.addresses()[0], period_s=10.0),
            "convert_pending",
        ),
        "domain_sync": (CrossDomainDirectory(sim, net, 2, sync_period_s=10.0), "sync_once"),
    }


@pytest.mark.parametrize(
    "name", ["tiering", "layouts", "rebalancer", "repairer", "conversion", "domain_sync"]
)
def test_daemon_survives_a_killed_cycle(name):
    sim = Simulator()
    daemon, cycle_attr = _daemons(sim)[name]
    started = []

    def cycle():
        started.append(sim.now)
        yield sim.timeout(1.0)
        if len(started) == 1:
            raise FaultInjectedError("transfer dropped mid-cycle")

    setattr(daemon, cycle_attr, cycle)
    daemon.start()
    daemon.start()  # a second start is a no-op
    sim.run(until=35.0)
    # The first cycle died at t=11; the loop waited one more period and
    # ran the next one, and the one after that.
    assert started == [10.0, 21.0, 32.0]
