"""Per-replica heterogeneous layouts — "Trojan" replicas (S54).

Covers the spec/meta round-trip, the pure rewrite, the storage variant
overlay (publish, fall-back, invalidation), the daemon's census-driven
layout decisions and idempotent publish-after-write cycle, and the
cluster end-to-end path: flag off means no daemon and no trace change;
flag on rewrites replicas, routes reads to them, keeps answers exact,
and surfaces the served layout in EXPLAIN ANALYZE.
"""

import numpy as np
import pytest

from repro import DataType, FeisuCluster, FeisuConfig, Schema
from repro.client import FeisuClient
from repro.cluster.node import LeafConfig
from repro.columnar.block import Block
from repro.errors import AnalysisError, StorageError
from repro.planner.cnf import AtomicPredicate, Clause, ConjunctiveForm
from repro.sim.events import Simulator
from repro.sim.netmodel import NetworkTopology, TopologySpec
from repro.sql.ast import BinaryOperator
from repro.storage.layouts import (
    LayoutDaemon,
    LayoutSpec,
    apply_layout,
    sorted_candidate_rows,
)
from repro.storage.router import StorageRouter
from repro.storage.systems import DistributedFS

from tests.conftest import CLICKS_SCHEMA, make_clicks_columns

FACT_SCHEMA = Schema.of(
    k=DataType.INT64, v=DataType.FLOAT64, w=DataType.INT64, note=DataType.STRING
)


def _block(block_id="b0", n=200, seed=0, scale_factor=1.0):
    rng = np.random.default_rng(seed)
    arrays = {
        "k": rng.integers(0, 10, n),
        "v": rng.random(n),
        "w": rng.integers(0, 100, n),
        "note": np.array([f"n{i % 5}" for i in range(n)], dtype=object),
    }
    return Block.from_arrays(block_id, FACT_SCHEMA, arrays, scale_factor=scale_factor)


def _cnf(column="w", op=BinaryOperator.LT, value=50):
    return ConjunctiveForm([Clause((AtomicPredicate(column, op, value),))])


def _rows(block, columns):
    return sorted(zip(*(block.column(c).tolist() for c in columns)))


# -- LayoutSpec -----------------------------------------------------------


def test_spec_meta_round_trip():
    spec = LayoutSpec(
        sort_column="w", columns=("k", "v", "w"), index_column="w",
        copartition_column="k",
    )
    assert LayoutSpec.from_meta(spec.to_meta()) == spec
    assert LayoutSpec.from_meta(None) is None
    assert LayoutSpec.from_meta({}) is None
    assert LayoutSpec().is_base and LayoutSpec().describe() == "base"
    assert spec.describe() == "sorted(w)+copart(k)+cols(k,v,w)+btree(w)"


def test_spec_serves_projection():
    spec = LayoutSpec(columns=("k", "v"))
    assert spec.serves(("k",)) and spec.serves(("k", "v"))
    assert not spec.serves(("k", "w"))
    assert LayoutSpec(sort_column="w").serves(("anything", "at", "all"))


def test_spec_narrowed_to_block_columns():
    spec = LayoutSpec(sort_column="w", columns=("k", "ghost"), index_column="gone")
    narrowed = spec.narrowed_to(["k", "v", "w"])
    # Unknown columns drop; the sort column is force-kept in the projection.
    assert narrowed.index_column is None
    assert narrowed.sort_column == "w"
    assert narrowed.columns == ("k", "w")
    # Projection covering every block column collapses to "all columns".
    full = LayoutSpec(columns=("k", "v", "w", "extra")).narrowed_to(["k", "v", "w"])
    assert full.columns is None


# -- apply_layout ---------------------------------------------------------


def test_apply_layout_sorts_and_projects():
    block = _block(scale_factor=7.0)
    spec = LayoutSpec(sort_column="w", columns=("k", "v", "w"))
    variant = apply_layout(block, spec)
    assert variant.block_id == block.block_id
    assert variant.scale_factor == block.scale_factor
    assert variant.num_rows == block.num_rows
    assert set(variant.chunks) == {"k", "v", "w"}
    w = variant.column("w")
    assert (w[:-1] <= w[1:]).all()
    # Same rows, permuted: the multiset over the kept columns is intact.
    assert _rows(variant, ("k", "v", "w")) == _rows(block, ("k", "v", "w"))


def test_apply_layout_round_trips_through_bytes():
    block = _block()
    spec = LayoutSpec(copartition_column="k")
    variant = Block.from_bytes(apply_layout(block, spec).to_bytes())
    k = variant.column("k")
    assert (k[:-1] <= k[1:]).all()
    assert _rows(variant, ("k", "v", "w")) == _rows(block, ("k", "v", "w"))


# -- sorted_candidate_rows ------------------------------------------------


def test_sorted_candidate_rows_exact_counts():
    block = apply_layout(_block(), LayoutSpec(sort_column="w"))
    w = block.column("w")
    assert sorted_candidate_rows(block, "w", _cnf(value=50).clauses) == int((w < 50).sum())
    assert sorted_candidate_rows(
        block, "w", _cnf(op=BinaryOperator.GE, value=90).clauses
    ) == int((w >= 90).sum())
    assert sorted_candidate_rows(
        block, "w", _cnf(op=BinaryOperator.EQ, value=7).clauses
    ) == int((w == 7).sum())


@pytest.mark.parametrize(
    "atoms",
    [
        [(BinaryOperator.GT, 2)],
        [(BinaryOperator.GE, 2)],
        [(BinaryOperator.GE, 2), (BinaryOperator.LT, 5)],
        [(BinaryOperator.LE, float("inf"))],
        [(BinaryOperator.EQ, 5)],
        [(BinaryOperator.GT, -float("inf")), (BinaryOperator.NE, 3)],
    ],
)
def test_sorted_candidate_rows_excludes_trailing_nan(atoms):
    """NaN sorts last and fails every bound: the count is the number of
    rows that satisfy every usable atom, never the NaN tail too."""
    w = np.array([1.0, 2.0, 3.0, 5.0, np.nan, np.nan])
    schema = Schema.of(w=DataType.FLOAT64)
    block = apply_layout(
        Block.from_arrays("b0", schema, {"w": w[::-1].copy()}), LayoutSpec(sort_column="w")
    )
    cnf = ConjunctiveForm(
        [Clause((AtomicPredicate("w", op, value),)) for op, value in atoms]
    )
    expected = np.ones(len(w), dtype=bool)
    for atom in cnf.atoms:
        if atom.op is not BinaryOperator.NE:  # a binary search cannot use NE
            expected &= atom.evaluate(w)
    assert sorted_candidate_rows(block, "w", cnf.clauses) == int(expected.sum())


def test_sorted_candidate_rows_none_when_unprunable():
    block = apply_layout(_block(), LayoutSpec(sort_column="w"))
    assert sorted_candidate_rows(block, "w", _cnf(column="k").clauses) is None
    assert sorted_candidate_rows(block, "missing", _cnf().clauses) is None
    # No scan reaches a binary search with a literal of another kind:
    # the analyzer refuses the comparison.
    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=1, nodes_per_rack=1))
    cluster.load_table("T", FACT_SCHEMA, {c: block.column(c) for c in FACT_SCHEMA.names})
    with pytest.raises(AnalysisError):
        cluster.query("SELECT COUNT(*) FROM T WHERE w < 'fifty'")


# -- storage variant overlay ----------------------------------------------


NODES = TopologySpec(1, 2, 4).addresses()


def _fs():
    return DistributedFS(NODES, seed=3)


def test_variant_overlay_publish_and_fallback():
    fs = _fs()
    fs.write("/t/b0", b"base-bytes")
    holders = fs.locations("/t/b0")
    fs.set_replica_variant("/t/b0", holders[1], b"variant", meta={"spec": {}})
    assert fs.variant_nodes("/t/b0") == [holders[1]]
    assert fs.read_replica("/t/b0", holders[1]) == b"variant"
    assert fs.read_replica("/t/b0", holders[0]) == b"base-bytes"
    assert fs.replica_meta("/t/b0", holders[1]) == {"spec": {}}
    assert fs.replica_variant("/t/b0", holders[0]) is None
    # The base payload is authoritative regardless of variants.
    assert fs.read("/t/b0") == b"base-bytes"
    outsider = next(n for n in NODES if n not in holders)
    with pytest.raises(StorageError):
        fs.set_replica_variant("/t/b0", outsider, b"nope")


def test_variant_invalidated_by_write_delete_and_replica_loss():
    fs = _fs()
    fs.write("/t/b0", b"one")
    holders = fs.locations("/t/b0")
    fs.set_replica_variant("/t/b0", holders[1], b"v1")
    fs.write("/t/b0", b"two")  # rewrite: derived variants are stale
    assert fs.variant_nodes("/t/b0") == []
    fs.set_replica_variant("/t/b0", fs.locations("/t/b0")[1], b"v2")
    dropped = fs.locations("/t/b0")[1]
    fs.drop_replica("/t/b0", dropped)
    assert dropped not in fs.variant_nodes("/t/b0")
    fs.set_replica_variant("/t/b0", fs.locations("/t/b0")[0], b"v3")
    fs.delete("/t/b0")
    assert fs.variant_nodes("/t/b0") == []


# -- LayoutDaemon units ---------------------------------------------------


def _layout_env(**daemon_kwargs):
    sim = Simulator()
    spec = TopologySpec(1, 2, 4)
    net = NetworkTopology(sim, spec)
    router = StorageRouter()
    fs = DistributedFS(spec.addresses(), seed=3)
    router.register(fs, default=True)
    daemon_kwargs.setdefault("period_s", 10.0)
    daemon = LayoutDaemon(sim, net, router, **daemon_kwargs)
    return sim, net, router, fs, daemon


def _feed_census(daemon, path, times=3, join=("k",), now=0.0):
    for _ in range(times):
        daemon.record_scan(
            path, _cnf(), ("k", "v", "w"), join_columns=join, nbytes=100, now=now
        )


def test_desired_layouts_from_census():
    sim, net, router, fs, daemon = _layout_env()
    fs.write("/t/b0", _block().to_bytes())
    _feed_census(daemon, "/hdfs/t/b0")
    replicas = fs.locations("/t/b0")
    desired = daemon.desired_layouts("/hdfs/t/b0")
    assert replicas[0] not in desired  # replica 0 always stays base
    assert desired[replicas[1]] == LayoutSpec(sort_column="w", columns=("k", "v", "w"))
    assert desired[replicas[2]] == LayoutSpec(
        columns=("k", "v", "w"), index_column="w", copartition_column="k"
    )


def test_desired_layouts_without_join_attaches_index_only():
    sim, net, router, fs, daemon = _layout_env()
    fs.write("/t/b0", _block().to_bytes())
    _feed_census(daemon, "/hdfs/t/b0", join=())
    replicas = fs.locations("/t/b0")
    desired = daemon.desired_layouts("/hdfs/t/b0")
    assert desired[replicas[2]] == LayoutSpec(columns=("k", "v", "w"), index_column="w")
    assert desired[replicas[2]].copartition_column is None


def test_desired_layouts_needs_evidence_and_replicas():
    sim, net, router, fs, daemon = _layout_env(min_evidence=5)
    fs.write("/t/b0", _block().to_bytes())
    _feed_census(daemon, "/hdfs/t/b0", times=2)  # below the evidence floor
    assert daemon.desired_layouts("/hdfs/t/b0") == {}
    assert daemon.desired_layouts("/hdfs/missing") == {}


def test_client_history_alone_drives_desired_layouts():
    # A client's history is evidence of its own: with no scan recorded on
    # the path, the column its predicates keep filtering on still earns
    # a sorted replica and an attached index.
    cluster = FeisuCluster(FeisuConfig(datacenters=1, racks_per_datacenter=2, nodes_per_rack=4))
    block = _block()
    columns = {f.name: block.column(f.name) for f in FACT_SCHEMA}
    cluster.load_table("T", FACT_SCHEMA, columns, storage="storage-a")
    cluster.create_user("analyst", admin=True)
    client = FeisuClient(cluster, "analyst")
    for bound in (5, 5, 5, 7):
        client.query(f"SELECT COUNT(*) FROM T WHERE w < {bound}")
    sim, net, router, fs, daemon = _layout_env()
    fs.write("/t/b0", block.to_bytes())
    daemon.attach_history(client.history)
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon._history_pred == {"w": 4}
    assert daemon._history_reads == {"w": 4}
    replicas = fs.locations("/t/b0")
    assert daemon.desired_layouts("/hdfs/t/b0") == {
        replicas[1]: LayoutSpec(sort_column="w", columns=("w",)),
        replicas[2]: LayoutSpec(columns=("w",), index_column="w"),
    }


def test_run_once_rewrites_one_replica_per_cycle_then_adopts():
    sim, net, router, fs, daemon = _layout_env()
    block = _block()
    fs.write("/t/b0", block.to_bytes())
    replicas = fs.locations("/t/b0")
    _feed_census(daemon, "/hdfs/t/b0")  # heat 3 >= threshold 2.0
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.rewrites == 1
    assert fs.variant_nodes("/t/b0") == [replicas[1]]
    meta = fs.replica_meta("/t/b0", replicas[1])
    assert LayoutSpec.from_meta(meta).sort_column == "w"
    assert meta["num_rows"] == block.num_rows
    assert set(meta["column_bytes"]) == {"k", "v", "w"}
    lo, hi = meta["order_range"]
    assert lo <= hi
    # The published variant decodes, is sorted, and holds the same rows.
    variant = Block.from_bytes(fs.replica_variant("/t/b0", replicas[1]))
    w = variant.column("w")
    assert (w[:-1] <= w[1:]).all()
    assert _rows(variant, ("k", "v", "w")) == _rows(block, ("k", "v", "w"))
    # The copy traffic was charged to the fabric.
    assert sum(ln.bytes_carried for ln in net.links()) >= len(variant.to_bytes())
    # Cycle two rewrites the block's other eligible replica...
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.rewrites == 2
    assert set(fs.variant_nodes("/t/b0")) == {replicas[1], replicas[2]}
    # ...and cycle three adopts the published state without re-copying.
    carried = sum(ln.bytes_carried for ln in net.links())
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.rewrites == 2
    assert sum(ln.bytes_carried for ln in net.links()) == carried


def test_run_once_skips_cold_and_deleted_paths():
    sim, net, router, fs, daemon = _layout_env(heat_threshold=100.0)
    fs.write("/t/b0", _block().to_bytes())
    _feed_census(daemon, "/hdfs/t/b0")  # hot enough for census, not for heat
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.rewrites == 0
    daemon.heat_threshold = 2.0
    fs.delete("/t/b0")
    sim.run_until_complete(sim.process(daemon.run_once()))
    assert daemon.stats.rewrites == 0


def test_payload_for_serves_variant_only_when_projection_covers():
    sim, net, router, fs, daemon = _layout_env()
    fs.write("/t/b0", _block().to_bytes())
    replicas = fs.locations("/t/b0")
    _feed_census(daemon, "/hdfs/t/b0")
    sim.run_until_complete(sim.process(daemon.run_once()))
    node = replicas[1]
    payload, spec = daemon.payload_for(fs, "/t/b0", node, ("k", "w"))
    assert spec is not None and spec.sort_column == "w"
    assert payload == fs.replica_variant("/t/b0", node)
    assert daemon.stats.variant_reads == 1
    # "note" is outside the projection: fall back to the base payload.
    payload, spec = daemon.payload_for(fs, "/t/b0", node, ("note",))
    assert spec is None and payload == fs.read("/t/b0")
    assert daemon.stats.ineligible_reads == 1
    # A base replica serves base bytes without touching the counters.
    payload, spec = daemon.payload_for(fs, "/t/b0", replicas[0], ("k",))
    assert spec is None and payload == fs.read("/t/b0")


def test_scheduler_scores_variant_replicas_cheaper():
    sim, net, router, fs, daemon = _layout_env()
    fs.write("/t/b0", _block(n=2000).to_bytes())
    replicas = fs.locations("/t/b0")
    _feed_census(daemon, "/hdfs/t/b0")
    for _ in range(2):
        sim.run_until_complete(sim.process(daemon.run_once()))

    class _Task:
        block = type(
            "B",
            (),
            {
                "path": "/hdfs/t/b0",
                "block_id": "b0",
                "bytes_for": staticmethod(
                    lambda cols: Block.from_bytes(fs.read("/t/b0")).column_bytes(cols)
                ),
                "scale_factor": 1.0,
                "modeled_rows": 2000.0,
            },
        )()
        columns = ("k", "v", "w")

    task = _Task()
    cnf = _cnf(value=10)  # selective range on the sort column
    base_s = daemon.scan_seconds(task, cnf, replicas[0])
    sorted_s = daemon.scan_seconds(task, cnf, replicas[1])
    indexed_s = daemon.scan_seconds(task, cnf, replicas[2])
    assert sorted_s < base_s  # range pruning + projection beat the full read
    assert indexed_s < base_s  # covered probe beats the full read
    assert daemon.replica_bytes(task, replicas[1]) < task.block.bytes_for(
        task.columns
    )
    # The attached tree answers an OR of ranges on its column as well,
    # so placement prices it as the covered probe the leaf runs.
    lt, gt = BinaryOperator.LT, BinaryOperator.GT
    either = ConjunctiveForm([Clause((AtomicPredicate("w", lt, 3), AtomicPredicate("w", gt, 10)))])
    assert daemon.scan_seconds(task, either, replicas[2]) == (
        daemon.cost_model.index_cpu_seconds(task, 1)
    )


# -- cluster end-to-end ---------------------------------------------------


def _layout_cluster():
    return FeisuCluster(
        FeisuConfig(
            datacenters=1,
            racks_per_datacenter=2,
            nodes_per_rack=4,
            leaf=LeafConfig(enable_smartindex=False, enable_layouts=True),
        )
    )


def test_flag_off_constructs_no_daemon(fresh_cluster):
    assert fresh_cluster.layouts is None
    assert fresh_cluster.scheduler.layouts is None
    fresh_cluster.create_user("nolayout", admin=True)
    client = FeisuClient(fresh_cluster, "nolayout")
    text = client.explain_analyze("SELECT COUNT(*) FROM T WHERE c1 < 50")
    assert "actual layout:" not in text


def test_cluster_layouts_end_to_end():
    cluster = _layout_cluster()
    columns = make_clicks_columns(3000, seed=11)
    cluster.load_table("T", CLICKS_SCHEMA, columns, storage="storage-a", block_rows=1000)
    expected = int((columns["c1"] < 50).sum())
    sql = "SELECT COUNT(*) AS n FROM T WHERE c1 < 50"
    for _ in range(3):
        assert cluster.query(sql).rows()[0][0] == expected
    for _ in range(2):
        cluster.sim.run_until_complete(cluster.sim.process(cluster.layouts.run_once()))
    assert cluster.layouts.stats.rewrites >= 1
    # Answers unchanged after the rewrites, and routing reaches a variant.
    assert cluster.query(sql).rows()[0][0] == expected
    assert cluster.layouts.stats.variant_reads >= 1
    cluster.create_user("lay", admin=True)
    client = FeisuClient(cluster, "lay")
    text = client.explain_analyze(sql)
    assert "actual layout:" in text
    # Routing picked a non-base copy (sorted or btree-covered variant).
    assert "sorted(c1)" in text or "btree(c1)" in text


def test_cluster_layouts_join_answers_unchanged():
    cluster = _layout_cluster()
    columns = make_clicks_columns(3000, seed=11)
    cluster.load_table("T", CLICKS_SCHEMA, columns, storage="storage-a", block_rows=1000)
    dim = {
        "c2": np.arange(10),
        "label": np.array([f"grp{i}" for i in range(10)], dtype=object),
    }
    cluster.load_table(
        "D",
        Schema.of(c2=DataType.INT64, label=DataType.STRING),
        dim,
        storage="storage-b",
        block_rows=100,
    )
    sql = (
        "SELECT label AS g, COUNT(*) AS n FROM T JOIN D ON T.c2 = D.c2 "
        "WHERE c1 < 70 GROUP BY g ORDER BY g"
    )
    before = cluster.query(sql).rows()
    for _ in range(3):
        cluster.query(sql)
    for _ in range(2):
        cluster.sim.run_until_complete(cluster.sim.process(cluster.layouts.run_once()))
    assert cluster.layouts.stats.rewrites >= 1
    assert cluster.query(sql).rows() == before
