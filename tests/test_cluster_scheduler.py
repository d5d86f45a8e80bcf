"""Scheduler placement policy and backup deadlines."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import FeisuCluster, FeisuConfig, Schema, DataType
from repro.cluster.scheduler import BACKUP_FACTOR, BACKUP_MIN_S, Placement
from repro.errors import SchedulingError
from repro.planner.physical import build_plan
from repro.sql.analyzer import analyze
from repro.sql.parser import parse

import numpy as np


@pytest.fixture()
def env():
    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=2, nodes_per_rack=4))
    n = 2000
    cluster.load_table(
        "T",
        Schema.of(a=DataType.INT64),
        {"a": np.arange(n)},
        storage="storage-a",
        block_rows=500,
    )
    plan = build_plan(analyze(parse("SELECT COUNT(*) FROM T WHERE a >= 0"), cluster.catalog))
    return cluster, plan


def test_place_prefers_replica_holder(env):
    cluster, plan = env
    task = plan.tasks[0]
    placement = cluster.scheduler.place(task, plan.scan_cnf)
    system, inner = cluster.router.resolve(task.block.path)
    assert placement.data_local
    assert placement.leaf.address in system.locations(inner)


def test_place_excludes_named_workers(env):
    cluster, plan = env
    task = plan.tasks[0]
    system, inner = cluster.router.resolve(task.block.path)
    replicas = set(system.locations(inner))
    replica_leaf_ids = [
        leaf.worker_id for leaf in cluster.leaves if leaf.address in replicas
    ]
    placement = cluster.scheduler.place(task, plan.scan_cnf, exclude=replica_leaf_ids)
    assert placement.leaf.worker_id not in replica_leaf_ids
    assert not placement.data_local


def test_place_skips_dead_leaves(env):
    cluster, plan = env
    task = plan.tasks[0]
    system, inner = cluster.router.resolve(task.block.path)
    replicas = set(system.locations(inner))
    for leaf in cluster.leaves:
        if leaf.address in replicas:
            leaf.crash()
    placement = cluster.scheduler.place(task, plan.scan_cnf)
    assert placement.leaf.alive


def test_no_live_leaf_raises(env):
    cluster, plan = env
    for leaf in cluster.leaves:
        leaf.crash()
    with pytest.raises(SchedulingError):
        cluster.scheduler.place(plan.tasks[0], plan.scan_cnf)


def test_round_robin_when_locality_disabled():
    cluster = FeisuCluster(
        FeisuConfig(datacenters=1, racks_per_datacenter=2, nodes_per_rack=4, locality_aware=False)
    )
    cluster.load_table(
        "T", Schema.of(a=DataType.INT64), {"a": np.arange(4000)}, block_rows=500
    )
    plan = build_plan(analyze(parse("SELECT COUNT(*) FROM T"), cluster.catalog))
    chosen = [cluster.scheduler.place(t, plan.scan_cnf).leaf.worker_id for t in plan.tasks]
    assert len(set(chosen)) == len(cluster.leaves)  # spread round-robin


def test_estimate_positive_and_larger_for_remote(env):
    cluster, plan = env
    task = plan.tasks[0]
    local = cluster.scheduler.place(task, plan.scan_cnf)
    system, inner = cluster.router.resolve(task.block.path)
    replica_leaf_ids = [
        leaf.worker_id for leaf in cluster.leaves if leaf.address in set(system.locations(inner))
    ]
    remote = cluster.scheduler.place(task, plan.scan_cnf, exclude=replica_leaf_ids)
    assert 0 < local.estimate_s < remote.estimate_s


def test_backup_deadline_floor(env):
    cluster, _ = env
    assert cluster.scheduler.backup_deadline(0.0001) == BACKUP_MIN_S
    assert cluster.scheduler.backup_deadline(10.0) == BACKUP_FACTOR * 10.0


def test_cross_datacenter_data_is_slower():
    """Geo-distribution: scanning data homed in a remote datacenter pays
    WAN transfer when no local replica exists (§I's cross-domain case)."""
    cfg = FeisuConfig(datacenters=2, racks_per_datacenter=2, nodes_per_rack=4)
    near = FeisuCluster(cfg)
    far = FeisuCluster(cfg)
    n = 4000
    cols = {"a": np.arange(n)}
    schema = Schema.of(a=DataType.INT64)
    # "near": default placement spreads replicas; every block has a
    # replica reachable without the WAN from some leaf.
    near.load_table("T", schema, cols, storage="storage-a", block_rows=500, scale_factor=2000.0)
    # "far": pin every block onto datacenter-1 nodes, then crash every
    # dc-1 leaf so queries must pull the data across the WAN.
    far.load_table("T", schema, cols, storage="storage-a", block_rows=500, scale_factor=2000.0)
    for leaf in far.leaves:
        if leaf.address.datacenter == 1:
            leaf.crash()
    # invalidate dc-0 replicas of far's blocks so only dc-1 copies remain
    # (blocks with no dc-1 replica keep one dc-0 copy to stay readable)
    table = far.catalog.get("T")
    for ref in table.blocks:
        system, inner = far.router.resolve(ref.path)
        if not any(a.datacenter == 1 for a in system.locations(inner)):
            continue
        for addr in list(system.locations(inner)):
            if addr.datacenter == 0:
                system.drop_replica(inner, addr)
    sql = "SELECT SUM(a) FROM T WHERE a >= 0"  # actually reads the column
    r_near = near.query(sql)
    r_far = far.query(sql)
    assert r_far.rows() == r_near.rows()
    t_near = r_near.stats["response_time_s"]
    t_far = r_far.stats["response_time_s"]
    assert t_far > t_near
    # and the far cluster's WAN links actually carried the data
    wan_far = sum(ln.bytes_carried for ln in far.net.links() if ln.name.startswith("wan"))
    assert wan_far > 0


# -- holder-first placement ≡ the full registry scan -------------------------
#
# ``JobScheduler.place`` starts from the block's replica holders and only
# falls through to filtering every registered leaf when no holder is
# eligible.  ``_reference_place`` is the body it had when it scanned the
# registry for every task, and ``_reference_estimate`` the pricing it had
# before ``place_wave`` hoisted the cost model's terms; the two must agree
# on every decision.


def _reference_count(self, local):
    if local:
        self.placements_local += 1
    else:
        self.placements_remote += 1


def _reference_estimate(self, leaf, task, cnf, local, system, inner):
    est = self.cost_model.task_seconds(
        task,
        cnf,
        index_covered=False,
        bandwidth_factor=system.profile.bandwidth_factor,
        extra_latency_s=system.profile.first_byte_latency_s,
        nbytes=self._task_bytes(task),
    )
    if not local:
        replicas = system.locations(inner)
        if replicas:
            nbytes = self._task_bytes(task)
            est += min(
                self.net.transfer_time_estimate(addr, leaf.address, int(nbytes))
                for addr in replicas
            )
    return est


def _reference_place(self, task, cnf, exclude=()):
    alive = [
        leaf
        for leaf in self._leaves.values()
        if leaf.alive
        and self.cluster_manager.is_alive(leaf.worker_id)
        and leaf.worker_id not in exclude
    ]
    is_draining = self.cluster_manager.is_draining
    non_draining = [leaf for leaf in alive if not is_draining(leaf.worker_id)]
    if non_draining:
        alive = non_draining
    if not alive:
        raise SchedulingError(f"no live leaf available for task {task.task_id}")
    system, inner = self.router.resolve(task.block.path)
    if not self.locality_aware:
        with self._lock:
            cursor = self._rr
            self._rr += 1
        leaf = alive[cursor % len(alive)]
        local = leaf.address in system.locations(inner)
        _reference_count(self, local)
        return Placement(
            leaf, local, _reference_estimate(self, leaf, task, cnf, local, system, inner)
        )

    replica_addrs = set(system.locations(inner))
    local_candidates = [leaf for leaf in alive if leaf.address in replica_addrs]
    if local_candidates:
        leaf = min(local_candidates, key=lambda lf: lf.load_snapshot().pressure)
        _reference_count(self, True)
        return Placement(
            leaf, True, _reference_estimate(self, leaf, task, cnf, True, system, inner)
        )

    def remote_cost(leaf):
        nbytes = self._task_bytes(task)
        xfer = min(
            self.net.transfer_time_estimate(addr, leaf.address, int(nbytes))
            for addr in replica_addrs
        ) if replica_addrs else 0.0
        return xfer + 0.05 * leaf.load_snapshot().pressure

    leaf = min(alive, key=remote_cost)
    _reference_count(self, False)
    return Placement(leaf, False, _reference_estimate(self, leaf, task, cnf, False, system, inner))


_N_LEAVES = 8
#: Small, so that most examples leave some holder eligible (the early
#: exit) while a good share leave none (the fall-through).
_subset = st.sets(st.integers(0, _N_LEAVES - 1), max_size=2)


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    replicas=st.lists(st.integers(0, _N_LEAVES - 1), max_size=4, unique=True),
    crashed=_subset,
    manager_dead=_subset,
    draining=_subset,
    exclude=st.sets(st.integers(0, _N_LEAVES - 1), max_size=4),
    reregistered=st.lists(st.integers(0, _N_LEAVES - 1), max_size=4),
    running=st.lists(st.integers(0, 2), min_size=_N_LEAVES, max_size=_N_LEAVES),
    locality_aware=st.sampled_from([True, True, True, False]),
    rr=st.integers(0, 20),
)
def test_holder_first_place_equals_registry_scan(
    env, replicas, crashed, manager_dead, draining, exclude, reregistered,
    running, locality_aware, rr,
):
    cluster, plan = env
    sched, manager = cluster.scheduler, cluster.cluster_manager
    leaves = list(cluster.leaves)
    task = plan.tasks[0]
    system, inner = cluster.router.resolve(task.block.path)
    original_replicas = list(system._placement[inner])  # noqa: SLF001
    try:
        system._placement[inner] = [leaves[i].address for i in replicas]  # noqa: SLF001
        for i, leaf in enumerate(leaves):
            leaf.alive = i not in crashed
            leaf.running_tasks = running[i]
            record = manager._workers[leaf.worker_id]  # noqa: SLF001
            record.alive = i not in manager_dead
            record.draining = i in draining
        for i in reregistered:  # moves the leaf to the end of the registry
            sched.unregister_leaf(leaves[i].worker_id)
            sched.register_leaf(leaves[i])
        sched.locality_aware = locality_aware
        kwargs = dict(exclude=[leaves[i].worker_id for i in sorted(exclude)])

        def run(place):
            sched._rr, sched.placements_local, sched.placements_remote = rr, 0, 0  # noqa: SLF001
            try:
                p = place(task, plan.scan_cnf, **kwargs)
                outcome = (p.leaf.worker_id, p.data_local, p.estimate_s)
            except SchedulingError:
                outcome = "no live leaf"
            return outcome, sched._rr, sched.placements_local, sched.placements_remote  # noqa: SLF001

        assert run(sched.place) == run(lambda *a, **k: _reference_place(sched, *a, **k))
    finally:
        system._placement[inner] = original_replicas  # noqa: SLF001
        sched.locality_aware = True
        for leaf in leaves:
            leaf.alive = True
            leaf.running_tasks = 0
            record = manager._workers[leaf.worker_id]  # noqa: SLF001
            record.alive, record.draining = True, False
            sched.unregister_leaf(leaf.worker_id)
            sched.register_leaf(leaf)


def test_local_placement_cost_does_not_grow_with_the_registry():
    """On 4 096 leaves one local placement asks the manager about the
    block's holders, not about every registered leaf."""
    cluster = FeisuCluster(
        FeisuConfig(datacenters=4, racks_per_datacenter=32, nodes_per_rack=32)
    )
    cluster.load_table("T", Schema.of(a=DataType.INT64), {"a": np.arange(512)}, block_rows=256)
    plan = build_plan(analyze(parse("SELECT COUNT(*) FROM T"), cluster.catalog))
    task = plan.tasks[0]
    system, inner = cluster.router.resolve(task.block.path)
    n_replicas = len(system.locations(inner))
    manager = cluster.cluster_manager
    calls = []
    real = manager.is_alive
    manager.is_alive = lambda worker_id: calls.append(worker_id) or real(worker_id)
    placement = cluster.scheduler.place(task, plan.scan_cnf)
    assert len(cluster.leaves) == 4096 and placement.data_local
    assert len(calls) <= n_replicas + 2


def test_an_unregistered_leaf_is_no_longer_found_by_address(env):
    cluster, _plan = env
    leaf = cluster.leaves[0]
    assert cluster.scheduler.leaf_at(leaf.address) is leaf
    cluster.scheduler.unregister_leaf(leaf.worker_id)
    assert cluster.scheduler.leaf_at(leaf.address) is None
    assert leaf not in cluster.scheduler.leaves()


def test_a_wave_counts_only_placed_tasks_local_or_remote(env):
    cluster, plan = env
    scheduler = cluster.scheduler
    before = scheduler.placements_local, scheduler.placements_remote
    every = [leaf.worker_id for leaf in cluster.leaves]
    placements = scheduler.place_wave(plan.tasks[:2], plan.scan_cnf, exclude=every)
    assert placements == [None, None]
    assert (scheduler.placements_local, scheduler.placements_remote) == before
    placements = scheduler.place_wave(plan.tasks[:2], plan.scan_cnf, exclude=every[1:])
    local = sum(p.data_local for p in placements)
    assert scheduler.placements_local == before[0] + local
    assert scheduler.placements_remote == before[1] + 2 - local


def test_the_scheduler_counts_every_readmission_and_names_the_last_64(env):
    cluster, _plan = env
    scheduler = cluster.scheduler
    for i in range(70):
        scheduler.note_readmission(f"w{i}")
    assert scheduler.readmissions == 70
    assert scheduler.readmitted_workers == [f"w{i}" for i in range(6, 70)]
