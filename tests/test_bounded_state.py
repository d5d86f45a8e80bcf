"""Bounded-state census: what the master keeps does not grow with jobs served.

A long-lived master must not pay, in memory or in time, for every job it
has ever run.  The census walks every object of this package reachable
from a cluster (its client and gateway included), sums the length of
every container by the attribute it hangs from (``JobManager.jobs``,
``Simulator._queue``, ...), and compares the sums after N jobs and after
3 N jobs of the same repeating workload.  A container that grew is either
a defect or is on ``ALLOWED_TO_GROW`` below with the reason it may.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Dict

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.client.client import FeisuClient
from repro.cluster import jobs as jobs_mod
from repro.cluster.node import LeafConfig
from repro.gateway import GatewayConfig
from repro.sim.events import Event

#: Census key -> why this container may be longer after 3 N jobs
#: than after N.  Everything else must be exactly as long.
ALLOWED_TO_GROW = {
    "_Replica.state": (
        "the job ledger's two replicas: the durable history (§III-C); retiring it into a "
        "log store is ROADMAP item 2's next step"
    ),
    "PrimaryBackup._log": "op-log tail, emptied every checkpoint_interval_ops (256) ops",
    "JobScheduler._task_bytes_cache": "memo, bounded by TASK_BYTES_CACHE_ENTRIES, oldest out first",
    "Catalog.statements": "statement cache, bounded by STATEMENT_CACHE_ENTRIES, oldest out first",
}
# Not listed because the census does not count them: a ``deque`` with a
# ``maxlen`` is bounded by construction (``QueryHistory._entries``,
# gateway session histories, ``TenantQueue.backlog_spans``);
# ``MetricsTimeSeries`` (TTL on the simulated clock), the elastic
# rebalancer's ``HeatTracker`` (``repro.cluster.elastic``; one record
# per read path), trace spans (per traced job, freed with it) and fault
# logs (one record per injected fault) exist only when their feature is
# switched on.  The simulator heap is counted *after a drain*: abandoned
# watchdog slots wait out their >= 2 s deadline, so mid-run it holds
# what the last ~2 simulated seconds dispatched.

_CONTAINERS = (dict, list, set, frozenset, deque)
_LEAVES = (str, bytes, int, float, bool, type(None), np.ndarray, np.generic, enum.Enum, type)


def census(cluster, *roots) -> Dict[str, int]:
    """Total length of every container reachable from ``cluster`` and
    ``roots`` through objects of this package, keyed by owner class and
    attribute, once the pending deadline timers have run out."""
    cluster.sim.run(until=cluster.sim.now + 30.0)
    roots = (cluster,) + roots
    sizes: Dict[str, int] = {}
    seen = set()
    stack = [(type(root).__name__, root) for root in roots]
    while stack:
        key, obj = stack.pop()
        if isinstance(obj, _LEAVES) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _CONTAINERS) or (isinstance(obj, tuple) and type(obj) is tuple):
            bounded = isinstance(obj, deque) and obj.maxlen is not None
            if not isinstance(obj, tuple) and not bounded:
                sizes[key] = sizes.get(key, 0) + len(obj)
            if key in ALLOWED_TO_GROW:
                # Its length is what is bounded; its entries are bounded
                # with it (what else holds them is counted there).
                continue
            values = list(obj.values()) + list(obj.keys()) if isinstance(obj, dict) else list(obj)
            stack.extend((key, v) for v in values)
            continue
        if isinstance(obj, Event) and not isinstance(obj, _CONTAINERS):
            # Events are reached from the heap; their waiters are the
            # liveness question the supervisor test below asks directly.
            continue
        if not type(obj).__module__.startswith("repro."):
            continue
        fields = dict(getattr(obj, "__dict__", {}))
        for klass in type(obj).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if hasattr(obj, slot):
                    fields[slot] = getattr(obj, slot)
        owner = type(obj).__name__
        stack.extend((f"{owner}.{name}", value) for name, value in fields.items())
    return sizes


def _grown(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, tuple]:
    out = {}
    for key in sorted(set(before) | set(after)):
        a, b = before.get(key, 0), after.get(key, 0)
        if b > a and key not in ALLOWED_TO_GROW:
            out[key] = (a, b)
    return out


QUERIES = [
    "SELECT COUNT(*) FROM T WHERE a > 100",
    "SELECT g, SUM(x) AS sx FROM T WHERE a < 1500 GROUP BY g ORDER BY g",
    "SELECT COUNT(*) FROM T WHERE g = 3 AND a >= 200",
    "SELECT MAX(x) AS mx FROM T",
]


def _cluster(**config) -> FeisuCluster:
    cluster = FeisuCluster(FeisuConfig(racks_per_datacenter=2, nodes_per_rack=4, **config))
    rng = np.random.default_rng(3)
    n = 2000
    cluster.load_table(
        "T",
        Schema.of(a=DataType.INT64, g=DataType.INT64, x=DataType.FLOAT64),
        {"a": np.arange(n), "g": rng.integers(0, 8, n), "x": rng.random(n)},
        block_rows=500,
    )
    cluster.create_user("u", admin=True)
    return cluster


@pytest.fixture()
def small_window(monkeypatch):
    """A finished-jobs window the test can overflow with a few dozen jobs."""
    monkeypatch.setattr(jobs_mod, "FINISHED_JOBS_RETAINED", 8)


N = 40


def test_client_path_state_is_flat_in_jobs_served(small_window):
    cluster = _cluster()
    client = FeisuClient(cluster, "u")

    def serve(count: int) -> None:
        for i in range(count):
            client.query(QUERIES[i % len(QUERIES)])

    serve(N)
    before = census(cluster, client)
    serve(2 * N)
    after = census(cluster, client)
    assert _grown(before, after) == {}
    manager = cluster.master.job_manager
    assert manager.jobs_total == 3 * N and len(manager.jobs) == 8
    assert cluster.job_ledger.log_length < 256 and len(cluster.job_ledger.entries()) == 3 * N
    assert cluster.metrics()["jobs_succeeded"] == 3 * N


def test_completed_task_reuse_keeps_only_its_window(small_window):
    """With a reuse window the master remembers finished tasks' results
    for the window, not one per distinct signature ever settled."""
    window = 60.0
    # SmartIndex off: every distinct literal adds entries to it, and those
    # are bounded by its own memory budget and TTL, not by jobs served.
    cluster = _cluster(
        reuse_completed_window_s=window, leaf=LeafConfig(enable_smartindex=False)
    )
    client = FeisuClient(cluster, "u")
    manager = cluster.master.job_manager
    literals = iter(range(10_000))

    def serve(count: int) -> None:
        for _ in range(count):
            sql = f"SELECT COUNT(*) FROM T WHERE a > {next(literals)}"
            client.query(sql)
            client.query(sql)  # inside the window: answered from the kept results
            cluster.sim.run(until=cluster.sim.now + window + 1.0)

    serve(N)
    before = census(cluster, client)
    serve(2 * N)
    after = census(cluster, client)
    assert _grown(before, after) == {}
    assert before["JobManager._completed"] > 0
    assert manager.reuse_hits_completed == 3 * N * before["JobManager._completed"]


def test_gateway_path_state_is_flat_in_sessions_served(small_window):
    cluster = _cluster(gateway=GatewayConfig())
    gateway = cluster.gateway

    def serve(sessions: int) -> list:
        handles = []
        for s in range(sessions):
            session = gateway.open_session("u", tenant=f"t{s % 3}")
            handles.extend(session.submit(QUERIES[(s + j) % len(QUERIES)]) for j in range(2))
            if s % 2:
                session.close()  # closed with queries still in flight
            gateway.run_until_drained()
            session.close()
        return handles

    serve(N)
    before = census(cluster)
    kept = serve(2 * N)
    after = census(cluster)
    assert _grown(before, after) == {}
    assert gateway.sessions == {} and gateway.queries == {}
    snap = gateway.snapshot()
    assert snap.sessions_open == 0 and snap.completed == 2 * 3 * N
    # A handle the caller kept still answers; its id is gone from the registry.
    assert kept[0].result().num_rows >= 1
    assert gateway.kill_query(kept[0].query_id) is False


def test_no_supervisor_outlives_its_job_on_the_heap():
    """After a job completes, no queue entry (on the timer heap or the
    due-now lane) still wakes one of its task supervisors: the watchdog's
    deadline slots stay (they keep their time) but have lost their
    waiter."""
    cluster = _cluster()
    client = FeisuClient(cluster, "u")
    for sql in QUERIES:
        client.query(sql)
    waiting = []
    slots = 0
    sim = cluster.sim
    for _t, _seq, fn, _args in [*sim._queue, *sim._lane]:  # noqa: SLF001
        event = getattr(fn, "__self__", None)
        if not isinstance(event, Event):
            continue
        slots += 1
        for waiter in event._callbacks:  # noqa: SLF001
            gen = getattr(getattr(waiter, "__self__", None), "_gen", None)
            if gen is not None and gen.gi_code.co_name in ("_task_supervisor", "_task_flow"):
                waiting.append(gen)
    assert slots > 0, "the deadline slots themselves are expected to remain"
    assert waiting == []


def test_reloads_leave_derived_block_state_bounded():
    """A table reloaded 20 times under the same block ids: every reload
    makes the B+ trees and SmartIndex vectors of the old bytes dead.  A
    tree is rebuilt in place, and dead vectors leave through the index's
    own memory budget, so neither grows with reloads.  One leaf, so
    placement cannot spread the blocks over more caches as it goes."""
    budget = 1024
    cluster = FeisuCluster(
        FeisuConfig(
            racks_per_datacenter=1,
            nodes_per_rack=1,
            leaf=LeafConfig(enable_btree=True, index_memory_bytes=budget),
        )
    )
    (leaf,) = cluster.leaves
    schema = Schema.of(a=DataType.INT64, s=DataType.STRING)
    # The range atom is answered by a tree; CONTAINS (no tree) feeds the index.
    sql = "SELECT COUNT(*) FROM T WHERE a > 100 AND s CONTAINS 'k3'"
    sizes = []
    for i in range(20):
        rng = np.random.default_rng(i)
        a, s = rng.permutation(2000), rng.integers(0, 8, 2000)
        if "T" in cluster.catalog:
            cluster.catalog.drop("T")
        cluster.load_table(
            "T",
            schema,
            {"a": a, "s": np.array([f"k{v}" for v in s], dtype=object)},
            block_rows=500,
        )
        assert cluster.query(sql).rows() == [(int(((a > 100) & (s == 3)).sum()),)]
        manager = leaf.index_manager
        assert manager.used_bytes <= budget
        # TTL records of evicted entries go with them, not after the 72 h TTL.
        assert len(manager._created) <= 2 * manager.entry_count + 8  # noqa: SLF001
        sizes.append((len(leaf.btrees.trees), manager.entry_count))
    assert leaf.btrees.builds == 20 * sizes[0][0]  # rebuilt for every reload...
    assert set(sizes[2:]) == {sizes[-1]}  # ...in place, and the index at its budget


def test_statement_cache_keeps_only_its_bound(monkeypatch):
    from repro.sql import analyzer

    monkeypatch.setattr(analyzer, "STATEMENT_CACHE_ENTRIES", 8)
    cluster = _cluster(leaf=LeafConfig(enable_smartindex=False))
    client = FeisuClient(cluster, "u")
    statements = [f"SELECT COUNT(*) FROM T WHERE a < {i}" for i in range(100)]
    for sql in statements:
        client.query(sql)
    assert len(cluster.catalog.statements) <= 8
    assert list(cluster.catalog.statements) == statements[-8:]  # the oldest went first
    assert statements[0] not in cluster.catalog.statements
    assert client.query(statements[0]).rows() == [(0,)]
    assert client.query(statements[50]).rows() == [(50,)]
    assert len(cluster.catalog.statements) <= 8
