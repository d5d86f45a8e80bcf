"""Leaf server behaviour: slots, storage profiles, SSD cache, crashes."""

import numpy as np
import pytest

from repro import FeisuCluster, FeisuConfig, LeafConfig, Schema, DataType


def _cluster(leaf: LeafConfig = LeafConfig(), **kw):
    cfg = FeisuConfig(datacenters=1, racks_per_datacenter=2, nodes_per_rack=4, leaf=leaf, **kw)
    cluster = FeisuCluster(cfg)
    n = 3000
    rng = np.random.default_rng(2)
    cluster.load_table(
        "T",
        Schema.of(a=DataType.INT64, b=DataType.FLOAT64),
        {"a": rng.integers(0, 50, n), "b": rng.random(n)},
        storage="storage-a",
        block_rows=500,
    )
    return cluster


def test_smartindex_disabled_leaf():
    cluster = _cluster(LeafConfig(enable_smartindex=False))
    sql = "SELECT COUNT(*) FROM T WHERE a > 10"
    r1 = cluster.query(sql)
    r2 = cluster.query(sql)
    assert r1.rows() == r2.rows()
    assert r2.stats["index_full_covers"] == 0
    assert cluster.aggregate_index_stats().lookups == 0


def test_fatman_first_byte_latency_slows_queries():
    cluster_hot = _cluster()
    cluster_cold = FeisuCluster(FeisuConfig(datacenters=2, racks_per_datacenter=2, nodes_per_rack=4))
    n = 3000
    rng = np.random.default_rng(2)
    cols = {"a": rng.integers(0, 50, n), "b": rng.random(n)}
    schema = Schema.of(a=DataType.INT64, b=DataType.FLOAT64)
    cluster_cold.load_table("T", schema, cols, storage="fatman", block_rows=500)
    hot = cluster_hot.query("SELECT COUNT(*) FROM T WHERE a > 10")
    cold = cluster_cold.query("SELECT COUNT(*) FROM T WHERE a > 10")
    assert hot.rows() == cold.rows()
    assert cold.stats["response_time_s"] > hot.stats["response_time_s"]


def test_fatman_single_slot_serializes_tasks():
    cluster = FeisuCluster(FeisuConfig(datacenters=2, racks_per_datacenter=2, nodes_per_rack=2))
    n = 4000
    cluster.load_table(
        "Cold",
        Schema.of(a=DataType.INT64),
        {"a": np.arange(n)},
        storage="fatman",
        block_rows=500,
    )
    r = cluster.query("SELECT COUNT(*) FROM Cold")
    assert r.rows()[0][0] == n


def test_local_fs_table_scans_from_owner_node():
    cluster = _cluster()
    node = cluster.nodes[3]
    cluster.load_table(
        "L",
        Schema.of(x=DataType.INT64),
        {"x": np.arange(100)},
        storage="localfs",
        block_rows=50,
        node=node,
    )
    r = cluster.query("SELECT COUNT(*) FROM L WHERE x < 10")
    assert r.rows()[0][0] == 10
    # the only replica is the producing node, so it did (some of) the work
    owner_leaf = cluster.leaf_at(node)
    assert owner_leaf.tasks_completed > 0


def test_ssd_cache_hits_on_repeat_scan():
    leaf_cfg = LeafConfig(enable_ssd_cache=True, ssd_admit_preferred_only=False)
    cluster = _cluster(leaf_cfg)
    cluster.query("SELECT SUM(b) FROM T WHERE a > -1")
    misses = sum(lf.ssd_cache.misses for lf in cluster.leaves)
    cluster.query("SELECT SUM(b) FROM T WHERE a > -2")  # different predicate, same blocks
    hits = sum(lf.ssd_cache.hits for lf in cluster.leaves)
    assert misses > 0 and hits > 0


def test_crashed_leaf_rejects_tasks_and_recovers():
    cluster = _cluster()
    leaf = cluster.leaves[0]
    leaf.crash()
    assert not leaf.alive
    leaf.recover()
    assert leaf.alive
    r = cluster.query("SELECT COUNT(*) FROM T")
    assert r.rows()[0][0] == 3000


def test_btree_mode_executes_correctly():
    cluster = _cluster(LeafConfig(enable_smartindex=False, enable_btree=True))
    r1 = cluster.query("SELECT COUNT(*) FROM T WHERE a >= 25")
    cols_a = None
    r2 = cluster.query("SELECT COUNT(*) FROM T WHERE a >= 25")
    assert r1.rows() == r2.rows()
    assert sum(lf.btrees.builds for lf in cluster.leaves) > 0


@pytest.mark.parametrize(
    "where, count", [("x > 30", 7), ("x >= 0", 30), ("x < 10", 7), ("x = 8", 0)]
)
def test_btree_answers_nan_rows_like_a_scan(where, count):
    """NaN fails every ordered comparison, so the B+ tree must not hand
    NaN rows to any bound (every fourth row of x = 0..39 is NaN)."""
    x = np.arange(40, dtype=np.float64)
    x[::4] = np.nan
    answers = []
    for enable_btree in (True, False):
        cluster = FeisuCluster(
            FeisuConfig(leaf=LeafConfig(enable_btree=enable_btree, enable_smartindex=False))
        )
        cluster.load_table("T", Schema.of(x=DataType.FLOAT64), {"x": x}, block_rows=20)
        answers.append(cluster.query(f"SELECT COUNT(*) FROM T WHERE {where}").rows())
        if enable_btree:
            assert sum(lf.btrees.builds for lf in cluster.leaves) > 0
    assert answers == [[(count,)], [(count,)]]


def test_index_memory_accounting_visible():
    cluster = _cluster()
    cluster.query("SELECT COUNT(*) FROM T WHERE a > 10")
    assert cluster.index_memory_used() > 0
    stats = cluster.aggregate_index_stats()
    assert stats.creations > 0


# -- exact comparison (S79) ---------------------------------------------------
#
# Every expected count is sqlite's and Python's exact ``x OP v``.  Before
# the analyzer put literals in their column's domain, numpy rounded one
# side, and a literal numpy could not convert retried until the job
# timed out as "processed 0% of data".

_BIG = [2**53, 2**53 + 1, 3, -5, 0, 2**53 + 1]


def _numbers(leaf: LeafConfig = LeafConfig()):
    cluster = FeisuCluster(FeisuConfig(leaf=leaf))
    cluster.load_table("A", Schema.of(a=DataType.INT64), {"a": np.array(_BIG, dtype=np.int64)})
    cluster.load_table(
        "F", Schema.of(f=DataType.FLOAT64), {"f": np.array([2.0**53, 1.5, 0.0])}
    )
    # Its range reaches both infinities, so no literal prunes the block.
    cluster.load_table(
        "G", Schema.of(g=DataType.FLOAT64), {"g": np.array([np.inf, 1.0, -np.inf])}
    )
    return cluster


def _count(cluster, sql):
    return cluster.query(sql).rows()[0][0]


@pytest.mark.parametrize(
    "leaf",
    [LeafConfig(), LeafConfig(enable_btree=True, enable_smartindex=False)],
    ids=["default", "btree"],
)
@pytest.mark.parametrize(
    "where, count",
    [
        ("A WHERE a > 9007199254740992.0", 2),
        ("A WHERE a = 9007199254740992.0", 1),
        ("A WHERE 9007199254740992.0 < a", 2),
        ("A WHERE NOT (a <= 9007199254740992.0)", 2),
        ("A WHERE a = 9007199254740993 AND a > 9007199254740992.0", 2),
        ("A WHERE a < 9223372036854775808", 6),
        ("A WHERE a >= -9223372036854775809", 6),
        ("A WHERE a != 18446744073709551616", 6),
        ("F WHERE f < 9007199254740993", 3),
        ("F WHERE f > 9007199254740993", 0),
        ("F WHERE f = 9007199254740993", 0),
        ("F WHERE f != 9007199254740993", 3),
        (f"G WHERE g = {10**400}", 0),
        (f"G WHERE g < {10**400}", 2),
        (f"G WHERE g <= -{10**400}", 1),
        (f"G WHERE g > -{10**400}", 2),
    ],
)
def test_literal_compares_exactly_with_its_column(leaf, where, count):
    cluster = _numbers(leaf)
    for _ in range(2):  # the second run may be answered from the index
        assert _count(cluster, f"SELECT COUNT(*) FROM {where}") == count


def test_btree_reads_a_literal_past_int64():
    """``np.searchsorted`` misread the out-of-range literal (14 of 16);
    the comparison now holds for every row before any tree is probed."""
    cluster = FeisuCluster(FeisuConfig(leaf=LeafConfig(enable_btree=True, enable_smartindex=False)))
    a = np.arange(16)
    a[-2:] = [2**63 - 1, 2**63 - 2]  # numpy reads 2^63 as a double these round to
    cluster.load_table("A", Schema.of(a=DataType.INT64), {"a": a})
    for _ in range(2):
        assert _count(cluster, "SELECT COUNT(*) FROM A WHERE a < 9223372036854775808") == 16


@pytest.mark.parametrize("leaf", [LeafConfig()], ids=["default"])
def test_ordered_complement_does_not_answer_nan_rows(leaf):
    """Fig 7's bit-NOT of ``f > 0`` selects the NaN rows too, which
    ``f <= 0`` does not; EQ and NE stay each other's exact complements."""
    cluster = FeisuCluster(FeisuConfig(leaf=leaf))
    f = np.array([0.0, 1.5, np.nan, 3.0, np.nan, -2.0])
    cluster.load_table("F", Schema.of(f=DataType.FLOAT64), {"f": f})
    for where, count in [("f > 0", 2), ("f <= 0", 2), ("f < 0", 1), ("f >= 0", 3),
                         ("f = 0", 1), ("f != 0", 5), ("f = 0", 1)]:
        for _ in range(2):
            assert _count(cluster, f"SELECT COUNT(*) FROM F WHERE {where}") == count, where
    assert cluster.aggregate_index_stats().complement_hits > 0  # f = 0 from the f != 0 vector


def _joined():
    cluster = FeisuCluster(FeisuConfig())
    schema = Schema.of(k=DataType.INT64, a=DataType.INT64)
    tens = np.array([10, 20, 30, 40])
    cluster.load_table("T", schema, {"k": np.arange(1, 5), "a": tens})
    cluster.load_table("D", schema, {"k": np.array([7, 8, 9, 1]), "a": tens})
    return cluster


def test_where_on_a_joined_column_is_not_applied_to_the_base_column():
    """An atom names its column bare, so ``D.k = 1`` became a scan atom
    on ``T.k`` once the select list had resolved ``T.k``."""
    cluster = _joined()
    join = "SELECT T.k, D.k FROM T JOIN D ON T.a = D.a WHERE"
    assert cluster.query(f"{join} D.k = 1").rows() == [(4, 1)]
    assert sorted(cluster.query(f"{join} NOT (D.k = 1)").rows()) == [(1, 7), (2, 8), (3, 9)]
    assert cluster.query(f"{join} T.k = 1").rows() == [(1, 7)]


def test_join_filter_with_a_literal_past_int64():
    cluster = _joined()
    sql = "SELECT COUNT(*) FROM T JOIN D ON T.a = D.a WHERE D.k < 9223372036854775808"
    assert _count(cluster, sql) == 4


def test_comparison_reads_a_literal_operand_as_a_scalar():
    cluster = _numbers()
    having = "SELECT a, COUNT(*) FROM A GROUP BY a HAVING COUNT(*) < 9223372036854775808"
    assert len(cluster.query(having).rows()) == 5
    assert _count(cluster, "SELECT COUNT(*) FROM A WHERE a + 1 < 9223372036854775808") == 6
    assert _count(cluster, "SELECT COUNT(*) FROM A WHERE 9223372036854775808 > a + 1") == 6


# -- parsed-block map (S57) ---------------------------------------------------
#
# A leaf keeps the Block it parsed from a stored payload and reuses it
# only while the storage layer hands back that very bytes object.  Every
# way a path's bytes can change must therefore show in the next answer.

_SCHEMA = Schema.of(a=DataType.INT64, b=DataType.FLOAT64)
_NO_INDEX = LeafConfig(enable_smartindex=False)  # isolate the map from SmartIndex


def _rows(n, a_value):
    return {"a": np.full(n, a_value, dtype=np.int64), "b": np.zeros(n)}


def _rewrite_table(cluster, columns, storage="storage-a"):
    """The ingestion process rewriting T in place: same paths, same
    block ids, different contents."""
    from repro.storage.loader import store_table

    table = store_table(
        "T", _SCHEMA, columns, cluster.router, cluster.storage_by_name(storage), block_rows=500
    )
    cluster.catalog.replace(table)


def _count_parses(monkeypatch):
    from repro.columnar.block import Block

    parses = []
    original = Block.from_bytes
    monkeypatch.setattr(
        Block,
        "from_bytes",
        classmethod(lambda cls, payload: parses.append(1) or original(payload)),
    )
    return parses


def _within_bound(cluster):
    from repro.cluster.node import PARSED_BLOCKS_MAX

    return all(len(leaf._parsed_blocks) <= PARSED_BLOCKS_MAX for leaf in cluster.leaves)


def test_block_parsed_once_then_reparsed_after_overwrite_and_recreate(monkeypatch):
    cluster = _cluster(_NO_INDEX)
    parses = _count_parses(monkeypatch)
    sql = "SELECT COUNT(*) FROM T WHERE a = 7"
    before = cluster.query(sql).rows()[0][0]
    assert before < 3000
    assert len(parses) == 6  # one per block
    cluster.query(sql)
    cluster.query("SELECT SUM(b) FROM T WHERE a > 3")  # other columns, same blocks
    assert len(parses) == 6  # same leaves, same stored objects: nothing to parse
    settled = len(parses)

    _rewrite_table(cluster, _rows(3000, 7))  # overwrite in place
    assert cluster.query(sql).rows()[0][0] == 3000
    assert len(parses) > settled

    system = cluster.storage_by_name("storage-a")
    for ref in cluster.catalog.get("T").blocks:  # delete, then re-create
        system.delete(cluster.router.resolve(ref.path)[1])
    _rewrite_table(cluster, _rows(3000, 8))
    assert cluster.query(sql).rows()[0][0] == 0
    assert cluster.query("SELECT COUNT(*) FROM T WHERE a = 8").rows()[0][0] == 3000
    assert _within_bound(cluster)


def test_layout_variant_publish_and_retract_are_seen(monkeypatch):
    # One node: the leaf that parsed the base bytes is the one that must
    # notice the variant, and later the retraction.
    cluster = FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=1,
            nodes_per_rack=1,
            leaf=LeafConfig(enable_smartindex=False, enable_layouts=True),
        )
    )
    rng = np.random.default_rng(2)
    cluster.load_table(
        "T", _SCHEMA, {"a": rng.integers(0, 50, 3000), "b": rng.random(3000)},
        storage="storage-a", block_rows=500,
    )
    parses = _count_parses(monkeypatch)
    sql = "SELECT COUNT(*) FROM T WHERE a < 20"
    expected = cluster.query(sql).rows()[0][0]
    assert cluster.query(sql).rows()[0][0] == expected
    assert len(parses) == 6

    from repro.storage.layouts import LayoutSpec

    system = cluster.storage_by_name("storage-a")
    inners = [cluster.router.resolve(ref.path)[1] for ref in cluster.catalog.get("T").blocks]
    for inner in inners:  # publish a sorted variant on the only replica
        (node,) = system.locations(inner)
        rewrite = cluster.layouts._rewrite(system, inner, node, LayoutSpec(sort_column="a"))
        assert cluster.sim.run_until_complete(cluster.sim.process(rewrite))
    settled = len(parses)
    assert cluster.query(sql).rows()[0][0] == expected  # served by a variant
    assert cluster.layouts.stats.variant_reads >= 1
    assert len(parses) > settled  # the variant's bytes were parsed, not the base parse reused

    for inner in inners:  # retract every variant
        for node in system.variant_nodes(inner):
            system.clear_replica_variant(inner, node)
    variant_reads = cluster.layouts.stats.variant_reads
    settled = len(parses)
    assert cluster.query(sql).rows()[0][0] == expected  # base order again
    assert cluster.layouts.stats.variant_reads == variant_reads
    assert len(parses) > settled  # and the variant's parse was not reused for the base
    assert _within_bound(cluster)


def test_promoted_block_is_read_from_its_hot_copy():
    cluster = _cluster(LeafConfig(enable_smartindex=False, enable_tiering=True))
    cluster.tiering.promote_threshold = 2.0
    cluster.load_table("F", _SCHEMA, _rows(1000, 7), storage="fatman", block_rows=500)
    sql = "SELECT COUNT(*) FROM F WHERE a = 7"
    for _ in range(4):
        assert cluster.query(sql).rows()[0][0] == 1000
        cluster.sim.run(until=cluster.sim.now + 40.0)  # let the daemon fire
    assert cluster.tiering.stats.promotions >= 1
    assert cluster.query(sql).rows()[0][0] == 1000
    # The map is keyed by the path actually read: the hot copies are in it.
    keys = {key for leaf in cluster.leaves for key in leaf._parsed_blocks}
    assert any(cluster.tiering.effective_path(ref.path) in keys
               for ref in cluster.catalog.get("F").blocks
               if cluster.tiering.effective_path(ref.path) != ref.path)
    assert _within_bound(cluster)


def test_reingested_log_table_on_the_same_paths_returns_new_rows():
    from repro.workload.loggen import LogIngestor, generate_log_records

    cluster = _cluster(_NO_INDEX)
    node = cluster.nodes[2]
    LogIngestor(cluster, table_name="logs").ingest(node, generate_log_records(40, 0, 0, 1))
    assert cluster.query("SELECT COUNT(*) FROM logs").rows()[0][0] == 40
    cluster.catalog.drop("logs")
    fresh = LogIngestor(cluster, table_name="logs")  # block ids restart: same paths
    fresh.ingest(node, generate_log_records(25, 0, 1, 2))
    assert cluster.query("SELECT COUNT(*) FROM logs").rows()[0][0] == 25
    assert _within_bound(cluster)


def test_parsed_block_map_is_bounded(monkeypatch):
    import repro.cluster.node as node_module

    monkeypatch.setattr(node_module, "PARSED_BLOCKS_MAX", 3)
    cluster = FeisuCluster(
        FeisuConfig(datacenters=1, racks_per_datacenter=1, nodes_per_rack=1, leaf=_NO_INDEX)
    )
    cluster.load_table("T", _SCHEMA, _rows(3000, 7), storage="storage-a", block_rows=250)
    (leaf,) = cluster.leaves
    for _ in range(2):
        assert cluster.query("SELECT COUNT(*) FROM T WHERE a = 7").rows()[0][0] == 3000
        assert len(leaf._parsed_blocks) == 3  # 12 blocks went through
    _rewrite_table(cluster, _rows(3000, 9))
    assert cluster.query("SELECT COUNT(*) FROM T WHERE a = 7").rows()[0][0] == 0
    assert len(leaf._parsed_blocks) == 3


def test_pressure_is_the_load_snapshots_pressure():
    """``LeafServer.pressure()`` (the scheduler's per-candidate read) is
    ``load_snapshot().pressure`` to the bit, every term loaded."""
    cluster = FeisuCluster(FeisuConfig(racks_per_datacenter=1, nodes_per_rack=1))
    (leaf,) = cluster.leaves
    assert leaf.pressure() == leaf.load_snapshot().pressure == 0.0
    leaf.disk.read(7_654_321)
    for _ in range(leaf.cpu.cores):
        leaf.cpu.compute(3.3e7)
    leaf.running_tasks, leaf.queued_tasks = 2, 3
    cluster.sim.run(until=0.01)
    snapshot = leaf.load_snapshot()
    assert snapshot.disk_queue_s > 0 and snapshot.cpu_queue_s > 0
    assert leaf.pressure() == snapshot.pressure
