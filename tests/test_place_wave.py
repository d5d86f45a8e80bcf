"""``JobScheduler.place_wave`` ≡ one ``place`` call per task, in order.

The master places a wave's tasks in one call, at the first step of the
first of its supervisors.  The property below draws a cluster state —
dead, dead-marked, draining, unregistered and re-registered leaves, an
exclusion list, the round-robin ablation, blocks on a storage system
with a first-byte latency, blocks whose replicas no eligible leaf holds
and blocks with no replica at all — and checks that the wave's
placements, estimates (compared with ``==``), round-robin cursor and
local / remote counters are those of one-by-one placement as ``place``
did it before waves, ``_reference_place``, and that each leaf's state
and load are read at most once per call.
"""

import collections
import dataclasses
import functools

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.errors import SchedulingError
from repro.planner.cost import CostModel
from repro.planner.physical import build_plan
from repro.sql.analyzer import analyze
from repro.sql.parser import parse
from tests.test_cluster_scheduler import _reference_place

_N_LEAVES = 8
_N_BLOCKS = 8


@functools.lru_cache(maxsize=None)
def _env():
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=4,
        )
    )
    schema = Schema.of(a=DataType.INT64, b=DataType.FLOAT64)
    rows = 250 * _N_BLOCKS
    columns = {"a": np.arange(rows), "b": np.linspace(0.0, 1.0, rows)}
    # Modelled as large blocks, so that no term of an estimate is lost in
    # the rounding of another.
    load = dict(block_rows=250, scale_factor=1237.0)
    plans = {}
    for table, storage in (("T", "storage-a"), ("U", "fatman")):
        cluster.load_table(table, schema, columns, storage=storage, **load)
        sql = f"SELECT SUM(b) FROM {table} WHERE a >= 0 AND b < 2.0"
        plans[storage] = build_plan(analyze(parse(sql), cluster.catalog))
        assert len(plans[storage].tasks) == _N_BLOCKS
    return cluster, plans


_leaf_set = st.sets(st.integers(0, _N_LEAVES - 1), max_size=3)
#: Per block, None keeps its replicas; a list replaces them (empty: the
#: block has no replica, so every placement of it is remote).
_replica_override = st.none() | st.lists(
    st.integers(0, _N_LEAVES - 1), max_size=3, unique=True
)


@settings(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    wave=st.lists(st.integers(0, _N_BLOCKS - 1), min_size=1, max_size=_N_BLOCKS, unique=True),
    replicas=st.lists(_replica_override, min_size=_N_BLOCKS, max_size=_N_BLOCKS),
    crashed=_leaf_set,
    manager_dead=_leaf_set,
    draining=_leaf_set,
    unregistered=st.sets(st.integers(0, _N_LEAVES - 1), max_size=2),
    reregistered=st.lists(st.integers(0, _N_LEAVES - 1), max_size=3),
    exclude=_leaf_set,
    running=st.lists(st.integers(0, 2), min_size=_N_LEAVES, max_size=_N_LEAVES),
    queued=st.lists(st.integers(0, 1), min_size=_N_LEAVES, max_size=_N_LEAVES),
    locality_aware=st.sampled_from([True, True, True, False]),
    rr=st.integers(0, 20),
    storage=st.sampled_from(["storage-a", "fatman"]),
    bandwidth_factor=st.sampled_from([1.0, 0.3, 1.9]),
    rates=st.sampled_from([None, (3.3e8, 1.3e-4, 1.7e9)]),
)
def test_place_wave_equals_one_place_per_task(
    wave, replicas, crashed, manager_dead, draining, unregistered, reregistered,
    exclude, running, queued, locality_aware, rr,
    storage, bandwidth_factor, rates,
):
    cluster, plans = _env()
    plan = plans[storage]
    sched, manager = cluster.scheduler, cluster.cluster_manager
    leaves = list(cluster.leaves)
    tasks = [plan.tasks[i] for i in wave]
    cnf = plan.scan_cnf
    system = cluster.storage_by_name(storage)
    profile = system.profile
    cost_model = sched.cost_model
    saved = {}
    for task in plan.tasks:
        _, inner = cluster.router.resolve(task.block.path)
        saved[inner] = list(system._placement[inner])  # noqa: SLF001
    try:
        # Odd rates and bandwidth factors, so that an estimate priced in
        # another float order than ``CostModel.task_seconds`` shows.
        system.profile = dataclasses.replace(profile, bandwidth_factor=bandwidth_factor)
        if rates is not None:
            bandwidth, seek, cpu = rates
            sched.cost_model = CostModel(
                disk_bandwidth_bps=bandwidth, disk_seek_s=seek, cpu_ops_per_sec=cpu
            )
        for task, override in zip(plan.tasks, replicas):
            if override is not None:
                _, inner = cluster.router.resolve(task.block.path)
                system._placement[inner] = [leaves[i].address for i in override]  # noqa: SLF001
        for i, leaf in enumerate(leaves):
            leaf.alive = i not in crashed
            leaf.running_tasks = running[i]
            leaf.queued_tasks = queued[i]
            record = manager._workers[leaf.worker_id]  # noqa: SLF001
            record.alive = i not in manager_dead
            record.draining = i in draining
        for i in reregistered:  # moves the leaf to the end of the registry
            sched.unregister_leaf(leaves[i].worker_id)
            sched.register_leaf(leaves[i])
        for i in unregistered:
            sched.unregister_leaf(leaves[i].worker_id)
        sched.locality_aware = locality_aware
        kwargs = dict(exclude=[leaves[i].worker_id for i in sorted(exclude)])

        def outcome(placement):
            if placement is None:
                return "no live leaf"
            return placement.leaf.worker_id, placement.data_local, placement.estimate_s

        def run(place_all):
            sched._rr, sched.placements_local, sched.placements_remote = rr, 0, 0  # noqa: SLF001
            outcomes = [outcome(p) for p in place_all()]
            return outcomes, sched._rr, sched.placements_local, sched.placements_remote  # noqa: SLF001

        def one_by_one(place):
            def place_all():
                out = []
                for task in tasks:
                    try:
                        out.append(place(task, cnf, **kwargs))
                    except SchedulingError:
                        out.append(None)
                return out

            return place_all

        expected = run(one_by_one(lambda *a, **k: _reference_place(sched, *a, **k)))
        reads = _count_reads(manager, leaves)
        assert run(lambda: sched.place_wave(tasks, cnf, **kwargs)) == expected
        # Each leaf's liveness, drain state and load are read at most once.
        assert all(n <= 1 for n in reads.values()), reads
        assert run(one_by_one(sched.place)) == expected
    finally:
        system.profile = profile
        sched.cost_model = cost_model
        for inner, original in saved.items():
            system._placement[inner] = original  # noqa: SLF001
        sched.locality_aware = True
        manager.__dict__.pop("is_alive", None)
        manager.__dict__.pop("is_draining", None)
        for leaf in leaves:
            leaf.__dict__.pop("pressure", None)
            leaf.alive = True
            leaf.running_tasks = leaf.queued_tasks = 0
            record = manager._workers[leaf.worker_id]  # noqa: SLF001
            record.alive, record.draining = True, False
            sched.unregister_leaf(leaf.worker_id)
            sched.register_leaf(leaf)


def _count_reads(manager, leaves):
    """Count each leaf's liveness and drain answers and ``pressure()``
    reads from here on, keyed (what, worker id)."""
    reads = collections.Counter()

    def counting(key, fn):
        def wrapper(*args):
            reads[key + args] += 1
            return fn(*args)

        return wrapper

    manager.is_alive = counting(("is_alive",), manager.is_alive)
    manager.is_draining = counting(("is_draining",), manager.is_draining)
    for leaf in leaves:
        leaf.pressure = counting(("pressure", leaf.worker_id), leaf.pressure)
    return reads
