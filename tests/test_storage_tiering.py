"""Heat-based adaptive tiering (S50): tracker, daemon, cluster wiring."""

import math

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.client import FeisuClient
from repro.cluster.node import LeafConfig
from repro.errors import FaultInjectedError
from repro.sim.events import Simulator
from repro.sim.netmodel import NetworkTopology, TopologySpec
from repro.storage.router import StorageRouter
from repro.storage.ssd_cache import SsdCache
from repro.storage.systems import DistributedFS, FatmanFS
from repro.storage.tiering import HeatTracker, TieringDaemon

from tests.conftest import CLICKS_SCHEMA, make_clicks_columns

NODES = TopologySpec(1, 2, 4).addresses()


# -- HeatTracker ----------------------------------------------------------


def test_heat_accumulates_and_decays():
    tracker = HeatTracker(half_life_s=100.0)
    tracker.record("/ffs/b0", 1000, now=0.0)
    tracker.record("/ffs/b0", 1000, now=0.0)
    assert tracker.heat("/ffs/b0", 0.0) == pytest.approx(2.0)
    # One half-life later the mass has halved.
    assert tracker.heat("/ffs/b0", 100.0) == pytest.approx(1.0)
    assert tracker.heat("/ffs/b0", 200.0) == pytest.approx(0.5)
    assert tracker.heat("/never", 0.0) == 0.0


def test_heat_blends_recency_into_frequency():
    tracker = HeatTracker(half_life_s=50.0)
    for t in (0.0, 10.0, 20.0):
        tracker.record("/old", 10, now=t)
    tracker.record("/new", 10, now=200.0)
    tracker.record("/new", 10, now=200.0)
    # Three stale accesses lose to two fresh ones.
    assert tracker.heat("/new", 200.0) > tracker.heat("/old", 200.0)


def test_top_reader_and_nbytes():
    tracker = HeatTracker()
    a, b = NODES[0], NODES[1]
    tracker.record("/p", 500, reader=a, now=0.0)
    tracker.record("/p", 900, reader=b, now=0.0)
    tracker.record("/p", 100, reader=b, now=0.0)
    assert tracker.top_reader("/p") == b
    assert tracker.nbytes("/p") == 900  # max observed charge
    assert tracker.top_reader("/none") is None


def test_hottest_orders_and_drops_zero():
    tracker = HeatTracker(half_life_s=1.0)
    tracker.record("/a", 1, now=0.0)
    tracker.record("/b", 1, now=0.0)
    tracker.record("/b", 1, now=0.0)
    ranked = tracker.hottest(0.0, 5)
    assert [p for p, _ in ranked] == ["/b", "/a"]
    # After many half-lives both are effectively cold but non-zero
    # mathematically; hottest() still ranks, zero entries are dropped.
    assert tracker.hottest(0.0, 1) == [("/b", pytest.approx(2.0))]


def test_tracker_rejects_bad_half_life():
    with pytest.raises(ValueError):
        HeatTracker(half_life_s=0.0)


# -- TieringDaemon units --------------------------------------------------


def _tier_env(**daemon_kwargs):
    sim = Simulator()
    spec = TopologySpec(1, 2, 4)
    net = NetworkTopology(sim, spec)
    nodes = spec.addresses()
    router = StorageRouter()
    hot = DistributedFS(nodes, seed=3)
    cold = FatmanFS(nodes, seed=4)
    router.register(hot, default=True)
    router.register(cold)
    daemon_kwargs.setdefault("period_s", 10.0)
    daemon = TieringDaemon(sim, net, router, hot_system=hot, **daemon_kwargs)
    return sim, net, router, hot, cold, daemon


def _heat_up(daemon, path, nbytes, reader, times):
    for t in times:
        daemon.record_access(path, nbytes, reader=reader, now=t)


def test_promotion_copies_cold_block_near_top_reader():
    sim, net, router, hot, cold, daemon = _tier_env()
    cold.write("/t/b0", b"x" * 2000)
    reader = next(n for n in NODES if n not in cold.locations("/t/b0"))
    _heat_up(daemon, "/ffs/t/b0", 2000, reader, [0.0] * 5)
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.promotions == 1
    assert daemon.stats.promoted_bytes == 2000
    hot_full = daemon.effective_path("/ffs/t/b0")
    assert hot_full != "/ffs/t/b0" and hot_full.startswith("/hdfs/_tier/ffs")
    assert daemon.tier_of("/ffs/t/b0") == "promoted"
    # Copy, not move: cold replicas intact, hot copy fully replicated
    # with its first replica on the dominant reader.
    assert len(cold.locations("/t/b0")) == cold.replication
    _, hot_inner = router.resolve(hot_full)
    assert hot.read(hot_inner) == b"x" * 2000
    holders = hot.locations(hot_inner)
    assert holders[0] == reader
    assert len(holders) == hot.replication
    assert len(set(holders)) == len(holders)
    # The promotion traffic was actually charged to the network.
    assert sum(ln.bytes_carried for ln in net.links()) >= 2000


def test_cold_block_below_threshold_not_promoted():
    sim, _, _, _, cold, daemon = _tier_env()
    cold.write("/t/b0", b"x" * 100)
    _heat_up(daemon, "/ffs/t/b0", 100, NODES[0], [0.0])  # heat 1 < 3
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.promotions == 0
    assert daemon.effective_path("/ffs/t/b0") == "/ffs/t/b0"


def test_hot_substrate_paths_never_promoted():
    sim, _, _, hot, _, daemon = _tier_env()
    hot.write("/t/b0", b"x" * 100)
    _heat_up(daemon, "/hdfs/t/b0", 100, NODES[0], [0.0] * 10)
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.promotions == 0
    assert daemon.tier_of("/hdfs/t/b0") == "hot"
    assert daemon.tier_of("/ffs/anything") == "cold"


def test_promotion_retry_is_idempotent_after_lost_publish():
    sim, net, router, hot, cold, daemon = _tier_env()
    cold.write("/t/b0", b"y" * 500)
    _heat_up(daemon, "/ffs/t/b0", 500, NODES[0], [0.0] * 5)
    # Simulate a crash after the hot write but before the hint publish:
    # the hot copy (written with its source's incarnation) already exists
    # when the next cycle retries.
    hot.write(
        "/_tier/ffs/t/b0", b"y" * 500, node=NODES[0], incarnation=cold.incarnation("/t/b0")
    )
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.adopted_promotions == 1
    assert daemon.stats.promotions == 0  # no second copy was transferred
    assert sum(ln.bytes_carried for ln in net.links()) == 0
    holders = hot.locations("/_tier/ffs/t/b0")
    assert len(set(holders)) == len(holders)  # no double-counted replica
    assert daemon.effective_path("/ffs/t/b0").endswith("/_tier/ffs/t/b0")


def test_faulted_promotion_is_counted_and_retried():
    sim, net, router, hot, cold, daemon = _tier_env()
    cold.write("/t/b0", b"z" * 300)
    _heat_up(daemon, "/ffs/t/b0", 300, NODES[0], [0.0] * 5)

    class _FailingNet:
        def distance(self, a, b):
            return net.distance(a, b)

        def transfer(self, *a, **k):
            raise FaultInjectedError("injected mid-promotion")

    daemon.net = _FailingNet()
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.failed_promotions == 1
    assert daemon.stats.promotions == 0
    assert daemon.effective_path("/ffs/t/b0") == "/ffs/t/b0"  # no hint
    assert not hot.exists("/_tier/ffs/t/b0")  # no half-written copy
    # Fault clears: the next cycle completes the promotion.
    daemon.net = net
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.promotions == 1


def test_demotion_on_heat_decay_removes_hint_and_copy():
    sim, _, router, hot, cold, daemon = _tier_env()
    cold.write("/t/b0", b"w" * 400)
    _heat_up(daemon, "/ffs/t/b0", 400, NODES[0], [0.0] * 5)
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.tier_of("/ffs/t/b0") == "promoted"
    hot_full = daemon.effective_path("/ffs/t/b0")
    _, hot_inner = router.resolve(hot_full)
    # Far past many half-lives, the block is cold again.
    sim.run(until=sim.now + 5000.0)
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.demotions == 1
    assert daemon.effective_path("/ffs/t/b0") == "/ffs/t/b0"
    assert not hot.exists(hot_inner)
    assert cold.exists("/t/b0")  # the cold copy was never touched


def test_byte_budget_limits_promotions():
    sim, _, _, _, cold, daemon = _tier_env(max_promoted_bytes=500)
    cold.write("/t/big", b"x" * 900)
    cold.write("/t/small", b"x" * 100)
    _heat_up(daemon, "/ffs/t/big", 900, NODES[0], [0.0] * 5)
    _heat_up(daemon, "/ffs/t/small", 100, NODES[0], [0.0] * 5)
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.effective_path("/ffs/t/small") != "/ffs/t/small"
    assert daemon.effective_path("/ffs/t/big") == "/ffs/t/big"  # over budget


def test_auto_preferences_follow_heat():
    sim, _, _, _, cold, daemon = _tier_env(prefer_top_k=1)
    cache = SsdCache(1000, admit_preferred_only=True)
    daemon.attach_cache(cache)
    cold.write("/t/b0", b"x" * 200)
    _heat_up(daemon, "/ffs/t/b0", 200, NODES[0], [0.0] * 5)
    sim.run_until_complete(sim.process(daemon.run_once()))
    # The hottest path is preferred under both its cold name and the
    # promoted hot alias.
    prefs = cache.preferred_prefixes()
    assert "/ffs/t/b0" in prefs
    assert daemon.effective_path("/ffs/t/b0") in prefs
    # Heat decays away: preferences are retracted.
    sim.run(until=sim.now + 5000.0)
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert cache.preferred_prefixes() == set()
    # A cache attached later inherits the current preference set.
    _heat_up(daemon, "/ffs/t/b0", 200, NODES[0], [sim.now] * 5)
    sim.run_until_complete(sim.process(daemon.run_once()))
    late = SsdCache(1000)
    daemon.attach_cache(late)
    assert "/ffs/t/b0" in late.preferred_prefixes()


def test_replica_extension_follows_new_dominant_reader():
    sim, _, router, hot, cold, daemon = _tier_env()
    cold.write("/t/b0", b"x" * 200)
    first_reader = NODES[0]
    _heat_up(daemon, "/ffs/t/b0", 200, first_reader, [0.0] * 5)
    sim.run_until_complete(sim.process(daemon.run_once()))
    hot_full = daemon.effective_path("/ffs/t/b0")
    _, hot_inner = router.resolve(hot_full)
    outside = next(n for n in NODES if n not in hot.locations(hot_inner))
    # The read mix shifts: a node outside the replica set dominates.
    _heat_up(daemon, "/ffs/t/b0", 200, outside, [sim.now] * 20)
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.replica_extensions == 1
    holders = hot.locations(hot_inner)
    assert outside in holders
    assert len(set(holders)) == len(holders)


def test_background_loop_runs_on_simulated_clock():
    sim, _, _, _, cold, daemon = _tier_env(period_s=5.0)
    cold.write("/t/b0", b"x" * 100)
    _heat_up(daemon, "/ffs/t/b0", 100, NODES[0], [0.0] * 5)
    daemon.start()
    daemon.start()  # second start is a no-op
    sim.run(until=12.0)
    assert daemon.stats.cycles >= 2
    assert daemon.stats.promotions == 1


# -- cluster wiring -------------------------------------------------------


def _tiered_cluster(**leaf_kwargs):
    leaf_kwargs.setdefault("enable_tiering", True)
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=4,
            leaf=LeafConfig(**leaf_kwargs),
        )
    )
    return cluster


def test_flag_off_constructs_no_daemon():
    cluster = FeisuCluster(FeisuConfig(nodes_per_rack=2))
    assert cluster.tiering is None
    assert cluster.scheduler.tiering is None
    assert all(leaf.tiering is None for leaf in cluster.leaves)


def test_cluster_promotes_hot_fatman_blocks_end_to_end():
    cluster = _tiered_cluster(enable_smartindex=False)
    cluster.tiering.promote_threshold = 2.0
    columns = make_clicks_columns(2000, seed=3)
    cluster.load_table("F", CLICKS_SCHEMA, columns, storage="fatman", block_rows=1000)
    expected = int((columns["c1"] < 50).sum())
    for _ in range(4):
        result = cluster.query("SELECT COUNT(*) FROM F WHERE c1 < 50")
        assert result.rows()[0][0] == expected
        cluster.sim.run(until=cluster.sim.now + 40.0)  # let the daemon fire
    assert cluster.tiering.stats.promotions >= 1
    promoted = cluster.tiering.promoted_paths()
    assert promoted and all(p.startswith("/ffs/") for p in promoted)
    # Correctness after promotion: reads serve the hot copy.
    result = cluster.query("SELECT COUNT(*) FROM F WHERE c1 < 50")
    assert result.rows()[0][0] == expected


def test_explain_analyze_reports_actual_tier():
    cluster = _tiered_cluster(enable_smartindex=False)
    cluster.tiering.promote_threshold = 2.0
    columns = make_clicks_columns(2000, seed=3)
    cluster.load_table("F", CLICKS_SCHEMA, columns, storage="fatman", block_rows=1000)
    cluster.create_user("ea", admin=True)
    client = FeisuClient(cluster, "ea")
    text = client.explain_analyze("SELECT COUNT(*) FROM F WHERE c1 < 50")
    assert "actual tier:" in text and "cold" in text
    for _ in range(3):
        cluster.query("SELECT COUNT(*) FROM F WHERE c1 < 50")
        cluster.sim.run(until=cluster.sim.now + 40.0)
    text2 = client.explain_analyze("SELECT COUNT(*) FROM F WHERE c1 < 50")
    assert "actual tier:" in text2 and "promoted" in text2


def test_explain_analyze_has_no_tier_line_without_tiering(fresh_cluster):
    fresh_cluster.create_user("notier", admin=True)
    client = FeisuClient(fresh_cluster, "notier")
    text = client.explain_analyze("SELECT COUNT(*) FROM T WHERE c1 < 50")
    assert "actual tier:" not in text


def test_leaf_overwrite_then_read_serves_fresh_bytes():
    """PR 5 staleness regression, end to end: rewriting a table's blocks
    must invalidate the SSD-cached payloads, not serve stale rows.  (A
    line is valid only for the payload object it holds, see
    ``tests/test_ssd_cache.py``.)"""
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=4,
            leaf=LeafConfig(
                enable_smartindex=False,
                enable_ssd_cache=True,
                ssd_admit_preferred_only=False,
            ),
        )
    )
    n = 2000
    v1 = {
        **make_clicks_columns(n, seed=3),
        "c1": np.zeros(n, dtype=np.int64),
    }
    cluster.load_table("T", CLICKS_SCHEMA, v1, storage="storage-a", block_rows=1000)
    assert cluster.query("SELECT COUNT(*) FROM T WHERE c1 < 50").rows()[0][0] == n
    # Cached: a second run hits the SSD cache.
    assert cluster.query("SELECT COUNT(*) FROM T WHERE c1 < 50").rows()[0][0] == n
    assert sum(leaf.ssd_cache.hits for leaf in cluster.leaves) > 0
    # The ingestion process rewrites every block in place (same paths,
    # same block ids — only the contents change).
    from repro.storage.loader import store_table

    v2 = {**v1, "c1": np.full(n, 99, dtype=np.int64)}
    store_table(
        "T", CLICKS_SCHEMA, v2, cluster.router,
        cluster.storage_by_name("storage-a"), block_rows=1000,
    )
    result = cluster.query("SELECT COUNT(*) FROM T WHERE c1 < 50")
    assert result.rows()[0][0] == 0  # stale cache would answer 2000


def test_repair_restores_layout_variant_with_metadata():
    """S54 satellite pin: a replica is its bytes *plus* its physical
    layout.  Re-replicating from a source that serves a rewritten variant
    must copy the variant bytes and its metadata — a repair that silently
    reverts new copies to the base layout loses the Trojan design the
    daemon paid to build."""
    from repro.storage.maintenance import ReplicaRepairer

    sim = Simulator()
    spec = TopologySpec(1, 2, 4)
    net = NetworkTopology(sim, spec)
    fs = DistributedFS(spec.addresses(), seed=3)
    fs.write("/f", b"x" * 1000)
    holders = fs.locations("/f")
    variant = b"v" * 400
    meta = {"spec": {"sort": "c1", "columns": ["c1"], "index": None,
                     "copartition": None}, "num_rows": 10}
    fs.set_replica_variant("/f", holders[0], variant, meta=meta)
    # Lose both base-only copies: the sole survivor serves the variant.
    for node in holders[1:]:
        fs.drop_replica("/f", node)
    repairer = ReplicaRepairer(sim, net, fs)
    report = sim.run_until_complete(sim.process(repairer.repair_once()))
    assert report.repairs_done == 2
    assert report.bytes_copied == 2 * len(variant)  # variant shipped, not base
    for node in fs.locations("/f"):
        assert fs.replica_variant("/f", node) == variant
        assert fs.replica_meta("/f", node) == meta
    assert fs.read("/f") == b"x" * 1000  # base payload stays authoritative


def test_repair_skips_stale_variant_after_inflight_rewrite():
    """S55 satellite pin: the repairer captures the source's variant
    *before* the copy transfer and previously published it unconditionally
    after — so a block write (or layout rewrite) landing while the copy
    was in flight left the new replica serving a variant no live copy
    matched.  Since S65 the shared mover publishes nothing at all when the
    block's incarnation moved under the copy: the rewrite placed a full
    replica set of its own, and the shipped bytes belong to neither."""
    from repro.storage.maintenance import ReplicaRepairer

    sim = Simulator()
    spec = TopologySpec(1, 2, 4)
    net = NetworkTopology(sim, spec)
    fs = DistributedFS(spec.addresses(), seed=3)
    fs.write("/f", b"x" * 1000)
    holders = fs.locations("/f")
    variant = b"v" * 1_000_000  # big enough that the copy takes sim time
    meta = {"spec": {"sort": "c1"}, "num_rows": 10}
    fs.set_replica_variant("/f", holders[0], variant, meta=meta)
    for node in holders[1:]:
        fs.drop_replica("/f", node)
    repairer = ReplicaRepairer(sim, net, fs)
    proc = sim.process(repairer.repair_once())
    # Mid-transfer, the block is rewritten: every variant overlay is
    # invalidated, so the bytes in flight no longer match any live copy.
    sim.schedule(1e-4, lambda: fs.write("/f", b"y" * 1000))
    report = sim.run_until_complete(proc)
    assert report.repairs_done == 0
    assert len(fs.locations("/f")) == fs.replication  # not 4 holders of 3
    for node in fs.locations("/f"):
        # No replica may publish the stale pre-rewrite variant.
        assert fs.replica_variant("/f", node) is None
        assert fs.replica_meta("/f", node) is None
    assert fs.read("/f") == b"y" * 1000


def test_repair_honors_liveness_predicate():
    """S55 satellite pin: ``_pick_target`` had no liveness filter, so a
    repair could "restore" replication onto a dead or draining node —
    bytes parked where no scan will ever read them.  The optional
    ``placement_ok`` hook (wired to membership liveness and drain state
    by the elastic manager) keeps repairs on serving nodes."""
    from repro.storage.maintenance import ReplicaRepairer

    sim = Simulator()
    spec = TopologySpec(1, 2, 4)
    net = NetworkTopology(sim, spec)
    nodes = spec.addresses()
    fs = DistributedFS(nodes, seed=3)
    fs.write("/f", b"x" * 500)
    holders = fs.locations("/f")
    for node in holders[1:]:
        fs.drop_replica("/f", node)
    survivor = holders[0]
    allowed = next(n for n in nodes if n != survivor)
    repairer = ReplicaRepairer(
        sim, net, fs, placement_ok=lambda n: n == survivor or n == allowed
    )
    report = sim.run_until_complete(sim.process(repairer.repair_once()))
    # Only one eligible target exists: one repair lands there, the other
    # copy is unrepairable rather than parked on an ineligible node.
    assert report.repairs_done == 1
    assert set(fs.locations("/f")) == {survivor, allowed}
    assert "/f" in report.unrepairable
