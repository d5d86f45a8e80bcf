"""Harness for the chaos matrix.

Every scenario gets a fresh small cluster (2 racks × 5 nodes, table T on
storage A, dimension D on storage B), a seeded
:class:`~repro.faults.injector.FaultInjector`, and an
:class:`~repro.faults.invariants.InvariantMonitor` wired to the sqlite
oracle of ``tests/_oracle.py``, which holds T and D (no statement here
names one of its ``DIVERGENCES``).  The seed defaults to
:data:`DEFAULT_SEED` and is overridden with the ``CHAOS_SEED``
environment variable — exactly what a failure report tells you to do to
replay a scenario bit-for-bit.
"""

import os

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.faults import FaultPlan, InvariantMonitor
from repro.sim.netmodel import NodeAddress

from tests._oracle import oracle_for

#: Fixed seed for CI; override with CHAOS_SEED to replay a failure.
DEFAULT_SEED = 1234


def current_seed() -> int:
    return int(os.environ.get("CHAOS_SEED", DEFAULT_SEED))


@pytest.fixture()
def seed() -> int:
    return current_seed()


def build_cluster(
    nodes_per_rack: int = 5,
    n_rows: int = 5000,
    block_rows: int = 500,
    data_seed: int = 7,
    leaf=None,
    gateway=None,
    elastic=None,
):
    """A fresh wired cluster with known contents (fact T, dimension D)."""
    config = FeisuConfig(
        datacenters=1,
        racks_per_datacenter=2,
        nodes_per_rack=nodes_per_rack,
        gateway=gateway,
        elastic=elastic,
    )
    if leaf is not None:
        config.leaf = leaf
    cluster = FeisuCluster(config)
    rng = np.random.default_rng(data_seed)
    columns = {
        "c1": rng.integers(0, 100, n_rows),
        "c2": rng.integers(0, 10, n_rows),
        "clicks": rng.random(n_rows),
    }
    # Write T from a rack-1 node: two of each block's three replicas land
    # in rack 1 and one in rack 0, so rack partitions genuinely cut the
    # scheduler off from its preferred placements.
    cluster.load_table(
        "T",
        Schema.of(c1=DataType.INT64, c2=DataType.INT64, clicks=DataType.FLOAT64),
        columns,
        storage="storage-a",
        block_rows=block_rows,
        node=NodeAddress(0, 1, 1),
    )
    dim = {
        "c2": np.arange(10),
        "label": np.array([f"grp{i}" for i in range(10)], dtype=object),
        "weight": np.linspace(0.1, 1.0, 10),
    }
    cluster.load_table(
        "D",
        Schema.of(c2=DataType.INT64, label=DataType.STRING, weight=DataType.FLOAT64),
        dim,
        storage="storage-b",
        block_rows=100,
    )
    return cluster, columns, dim


class ChaosHarness:
    """One scenario's cluster + injector + monitor, seed-threaded."""

    #: Deterministic-output queries scenarios draw from.
    Q_GROUP = "SELECT c2 AS k, COUNT(*) AS n, SUM(c1) AS s FROM T GROUP BY k ORDER BY k"
    Q_COUNT = "SELECT COUNT(*) AS n FROM T WHERE c1 < 50"
    Q_JOIN = (
        "SELECT label AS g, COUNT(*) AS n FROM T JOIN D ON T.c2 = D.c2 "
        "WHERE c1 < 70 GROUP BY g ORDER BY g"
    )

    def __init__(self, seed: int, **cluster_kwargs):
        self.seed = seed
        self.cluster, self.columns, self.dim = build_cluster(**cluster_kwargs)
        self.monitor = InvariantMonitor(
            self.cluster,
            horizon_s=600.0,
            oracle=oracle_for({"T": self.columns, "D": self.dim}),
        )
        self.monitor.expect_replication(self.cluster.storage_a)
        self.injector = None

    def install(self, plan: FaultPlan):
        self.injector = self.cluster.install_faults(plan, seed=self.seed)
        return self.injector

    @property
    def sim(self):
        return self.cluster.sim

    def leaf(self, worker_id: str):
        return next(l for l in self.cluster.leaves if l.worker_id == worker_id)

    def run(self, sql: str, options=None):
        """Run one query under the invariant monitor; returns the job."""
        return self.monitor.run_job(sql, options=options)

    def finish(self, scenario: str) -> None:
        """End-of-scenario invariant check; raises with seed + replay cmd."""
        self.monitor.assert_ok(seed=self.seed, scenario=scenario)


@pytest.fixture()
def harness(seed):
    return ChaosHarness(seed)


def make_harness(seed: int, **kwargs) -> ChaosHarness:
    """For scenarios needing a non-default cluster shape."""
    return ChaosHarness(seed, **kwargs)
